package sched_test

import (
	"runtime"
	"testing"
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/sched"
)

// Corner cases of the §9 synchronous throwTo design.

func syncOpts() sched.Options {
	opts := sched.DefaultOptions()
	opts.SyncThrowTo = true
	return opts
}

func TestSyncThrowToToDeadThreadReturnsImmediately(t *testing.T) {
	main := sched.Bind(sched.Fork(sched.Return(1)), func(raw any) sched.Node {
		tid := raw.(sched.ThreadID)
		return seq(
			sched.Sleep(time.Millisecond), // child finishes
			sched.ThrowTo(tid, exc.Dyn{Tag: "X"}),
			sched.PutChar('d'),
		)
	})
	_, rt := run(t, syncOpts(), main)
	if rt.Output() != "d" {
		t.Fatalf("output %q", rt.Output())
	}
}

func TestSyncThrowToTargetFinishesWhileWaiting(t *testing.T) {
	// The target is masked and completes without ever unmasking; the
	// thrower must still be released ("throwTo to a finished thread
	// trivially succeeds", §5).
	mvNode := sched.NewEmptyMVar()
	main := sched.Bind(mvNode, func(raw any) sched.Node {
		ready := raw.(*sched.MVar)
		target := sched.Block(seq(
			sched.PutMVar(ready, 1),
			busy(5000),
			// finishes masked, pending exception undelivered
		))
		return sched.Bind(sched.Fork(target), func(rawT any) sched.Node {
			tid := rawT.(sched.ThreadID)
			return seq(
				sched.Then(sched.TakeMVar(ready), sched.ReturnUnit()),
				sched.ThrowTo(tid, exc.Dyn{Tag: "X"}), // parks: target masked
				sched.PutChar('r'),                    // released when the target dies
			)
		})
	})
	_, rt := run(t, syncOpts(), main)
	if rt.Output() != "r" {
		t.Fatalf("output %q", rt.Output())
	}
}

func TestSyncThrowToSelfDeliversImmediately(t *testing.T) {
	// §9: the synchronous version needs a special case for a thread
	// throwing to itself — it cannot wait for its own delivery.
	main := sched.Bind(sched.MyThreadID(), func(raw any) sched.Node {
		me := raw.(sched.ThreadID)
		return sched.Catch(
			sched.Then(sched.ThrowTo(me, exc.Dyn{Tag: "Me"}), sched.PutChar('x')),
			func(e exc.Exception) sched.Node { return sched.PutChar('c') })
	})
	_, rt := run(t, syncOpts(), main)
	if rt.Output() != "c" {
		t.Fatalf("output %q", rt.Output())
	}
}

func TestSyncThrowerInterruptedWithdrawsException(t *testing.T) {
	// A parked synchronous thrower that is itself interrupted
	// withdraws its in-flight exception: the target must NOT receive
	// it afterwards.
	mvNode := sched.NewEmptyMVar()
	main := sched.Bind(mvNode, func(raw any) sched.Node {
		ready := raw.(*sched.MVar)
		target := sched.Catch(
			sched.Block(seq(
				sched.PutMVar(ready, 1),
				busy(200000),
				sched.PutChar('t'), // target survives its masked region
				sched.Then(sched.Unblock(sched.ReturnUnit()), sched.PutChar('u')),
			)),
			func(e exc.Exception) sched.Node { return sched.PutChar('!') })
		return sched.Bind(sched.Fork(target), func(rawT any) sched.Node {
			tid := rawT.(sched.ThreadID)
			thrower := sched.Catch(
				sched.ThrowTo(tid, exc.Dyn{Tag: "X"}), // parks (target masked)
				func(e exc.Exception) sched.Node { return sched.PutChar('w') })
			return sched.Bind(sched.Fork(thrower), func(rawW any) sched.Node {
				wid := rawW.(sched.ThreadID)
				return seq(
					sched.Then(sched.TakeMVar(ready), sched.ReturnUnit()),
					// Yield (not sleep: the virtual clock cannot advance
					// while the target is busy) until the thrower has
					// parked on its synchronous throwTo.
					sched.Yield(), sched.Yield(), sched.Yield(),
					sched.ThrowTo(wid, exc.ThreadKilled{}),
					sched.Sleep(time.Millisecond), // drain: target finishes
				)
			})
		})
	})
	_, rt := run(t, syncOpts(), main)
	out := rt.Output()
	// 'w' = thrower interrupted; 't' and 'u' = target untouched; no '!'.
	if out != "wtu" && out != "twu" {
		t.Fatalf("output %q: the withdrawn exception must not reach the target", out)
	}
}

// TestSyncThrowerWithdrawRacesSteal: on two shards, synchronous
// throwers park on a victim that stays masked and runnable, and are
// then interrupted, so each withdraw races the steals that move the
// victim between shards. The withdraw must check the victim's owner
// under the shard lock a thief takes (run under -race: an unguarded
// edit of a pending queue another shard is stepping is a data race).
// The run must complete: every thrower and the victim report to main.
// Whether a steal happens at all is up to the OS scheduling the second
// shard's goroutine, so the victim hands over the OS thread at every
// yield, and seeds run — at least 20 — until both a steal and an
// interrupted wait have been seen, up to a cap.
func TestSyncThrowerWithdrawRacesSteal(t *testing.T) {
	const throwers, minSeeds, maxSeeds = 8, 20, 2000
	var steals, interrupts uint64
	seed := int64(0)
	for ; seed < maxSeeds && (seed < minSeeds || steals == 0 || interrupts == 0); seed++ {
		opts := syncOpts()
		opts.Shards = 2
		opts.TimeSlice = 3
		opts.RandomSched = true
		opts.Seed = seed
		main := sched.Bind(sched.NewEmptyMVar(), func(raw any) sched.Node {
			done := raw.(*sched.MVar)
			victim := sched.BlockUninterruptible(sched.Then(yields(400), sched.PutMVar(done, "victim")))
			return sched.Bind(sched.Fork(victim), func(rawV any) sched.Node {
				vid := rawV.(sched.ThreadID)
				thrower := sched.Catch(
					sched.Then(sched.ThrowTo(vid, exc.Dyn{Tag: "X"}), sched.PutMVar(done, "released")),
					func(exc.Exception) sched.Node { return sched.PutMVar(done, "interrupted") })
				var fork func(i int, ids []sched.ThreadID) sched.Node
				fork = func(i int, ids []sched.ThreadID) sched.Node {
					if i == throwers {
						kills := []sched.Node{yields(int(seed % 5))}
						for _, id := range ids {
							kills = append(kills, sched.ThrowTo(id, exc.ThreadKilled{}))
						}
						for j := 0; j <= throwers; j++ {
							kills = append(kills, sched.TakeMVar(done))
						}
						return seq(kills...)
					}
					return sched.Bind(sched.Fork(thrower), func(rawW any) sched.Node {
						return fork(i+1, append(ids, rawW.(sched.ThreadID)))
					})
				}
				return fork(0, nil)
			})
		})
		res, rt := run(t, opts, main)
		if res.Exc != nil {
			t.Fatalf("seed %d: %v", seed, res.Exc)
		}
		st := rt.Stats()
		steals += st.Steals
		interrupts += st.Interrupts
	}
	t.Logf("%d seeds: %d steals, %d interrupted waits", seed, steals, interrupts)
	if steals == 0 || interrupts == 0 {
		t.Fatal("no steal raced a withdraw")
	}
}

// yields is n scheduler yields: a thread that stays runnable, and so
// stealable, throughout. Each yield also hands over the OS thread, so
// the other shard's worker gets to run — and steal — even when both
// shards share one CPU.
func yields(n int) sched.Node {
	gosched := sched.Lift(func() any { runtime.Gosched(); return nil })
	out := sched.ReturnUnit()
	for i := 0; i < n; i++ {
		out = sched.Then(gosched, sched.Then(sched.Yield(), out))
	}
	return out
}
