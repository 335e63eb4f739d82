package actor

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"asyncexc/internal/core"
)

// TestReceiveVsThrowToRace is the issue's seeded race: a kill races a
// matching message at the receive point. The §5.3 rule says the parked
// receive is interruptible, so either outcome is legal — but exactly
// one must happen per round:
//
//   - message handled: the receiver got the message; the kill then
//     landed later (at the next receive) and the message is consumed;
//   - exception unwound: the kill won at the park, or on the re-lock
//     after the doorbell woke the receiver; no message leaves the queue
//     outside the lock, so it is still in the mailbox, unconsumed.
//
// Never both (duplicate delivery) and never neither (lost message).
// Each round uses a fresh seed-derived delay set to move the
// interleaving around. The selective-receive rounds run serial and
// 4-shard. The ReceiveAll rounds run serial and 2-shard, with a third
// thread holding the mailbox lock for a while, so that a woken
// receiver can find the lock taken and the kill land on its re-lock.
// Run under -race.
func TestReceiveVsThrowToRace(t *testing.T) {
	const rounds = 100
	for _, tc := range []struct {
		name   string
		shards int
		all    bool
	}{{"serial", 1, false}, {"4shard", 4, false}, {"receiveAll-serial", 1, true}, {"receiveAll-2shard", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xA11CE))
			for round := 0; round < rounds; round++ {
				seed := rng.Int63()
				runRaceRound(t, tc.shards, tc.all, round, seed)
				if t.Failed() {
					t.Fatalf("failing seed: %#x (round %d)", seed, round)
				}
			}
		})
	}
}

func runRaceRound(t *testing.T, shards int, all bool, round int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sendDelay := time.Duration(rng.Intn(30)) * time.Microsecond
	killDelay := time.Duration(rng.Intn(30)) * time.Microsecond
	holdDelay := sendDelay + time.Duration(rng.Intn(3))*time.Microsecond
	holdFor := time.Duration(1+rng.Intn(10)) * time.Microsecond

	opts := core.ParallelOptions(shards) // virtual clock, real parallelism
	if shards == 1 {
		opts = core.DefaultOptions()
	}
	sys := core.NewSystem(opts)

	var handled atomic.Int32
	var unwound atomic.Int32
	var queued atomic.Int32
	var sent atomic.Bool

	prog := core.Bind(NewMailbox[int]("race"), func(mb *Mailbox[int]) core.IO[core.Unit] {
		receive := mb.ReceiveWhere(func(n int) bool { return n == 42 })
		if all {
			receive = core.Map(mb.ReceiveAll(), func(ms []int) int { return ms[0] })
		}
		// Receiver: one receive for the racing message. The whole
		// thing runs under Block — the actor-loop discipline — so the
		// kill can only land inside the receive, never between a
		// successful receive and the bookkeeping that records it.
		recv := core.Block(core.Bind(core.Try(receive),
			func(a core.Attempt[int]) core.IO[core.Unit] {
				return core.Lift(func() core.Unit {
					if a.Failed() {
						unwound.Add(1)
					} else {
						handled.Add(1)
					}
					return core.UnitValue
				})
			}))
		// Holder: takes the mailbox lock just after the send, for
		// holdFor, as a busy sender would, so the woken receiver waits
		// on its re-lock and the kill may land there.
		holder := core.Then(core.Sleep(holdDelay), core.Bind(core.Take(mb.st), func(s mState[int]) core.IO[core.Unit] {
			return core.Then(core.Sleep(holdFor), core.Put(mb.st, s))
		}))
		return core.Bind(core.Fork(recv), func(rtid core.ThreadID) core.IO[core.Unit] {
			sender := core.Then(core.Sleep(sendDelay), core.Then(mb.Send(42),
				core.Lift(func() core.Unit { sent.Store(true); return core.UnitValue })))
			killer := core.Then(core.Sleep(killDelay), core.KillThread(rtid))
			forks := core.Then(core.Void(core.Fork(sender)), core.Void(core.Fork(killer)))
			if all {
				forks = core.Then(forks, core.Void(core.Fork(holder)))
			}
			return core.Then(forks, core.Delay(func() core.IO[core.Unit] {
				// Wait for the receiver to settle and the message to be
				// sent (on parallel shards a kill can land before the
				// send), then audit the mailbox from a fresh consumer.
				var settle func(int) core.IO[core.Unit]
				settle = func(tries int) core.IO[core.Unit] {
					return core.Delay(func() core.IO[core.Unit] {
						if handled.Load()+unwound.Load() > 0 && sent.Load() || tries <= 0 {
							return core.Bind(mb.TryReceive(), func(m core.Maybe[int]) core.IO[core.Unit] {
								return core.Lift(func() core.Unit {
									if m.IsJust {
										queued.Add(1)
									}
									return core.UnitValue
								})
							})
						}
						return core.Then(core.Sleep(time.Millisecond), settle(tries-1))
					})
				}
				return settle(10_000)
			}))
		})
	})

	if _, e, err := core.RunSystem(sys, prog); e != nil || err != nil {
		t.Fatalf("round %d (seed %#x): exc=%v err=%v", round, seed, e, err)
	}

	h, u, q := handled.Load(), unwound.Load(), queued.Load()
	if h+u != 1 {
		t.Errorf("round %d (seed %#x): handled=%d unwound=%d, want exactly one outcome", round, seed, h, u)
	}
	// Conservation: handled consumes the message; unwound must leave
	// it queued. handled+queued == 1 always.
	if h+q != 1 {
		kind := "lost"
		if h+q > 1 {
			kind = "duplicated"
		}
		t.Errorf("round %d (seed %#x): handled=%d queued=%d — message %s", round, seed, h, q, kind)
	}
}
