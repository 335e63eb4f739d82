package core_test

import (
	"fmt"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
)

// --- TryTimeout: the three-way timeout result ------------------------------

func TestTryTimeoutCompletes(t *testing.T) {
	m := core.TryTimeout(time.Hour, core.Then(core.Sleep(time.Millisecond), core.Return(42)))
	r, e, err := core.Run(m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if !r.Succeeded() || r.Value != 42 {
		t.Fatalf("want success 42, got %+v", r)
	}
}

func TestTryTimeoutExpires(t *testing.T) {
	m := core.TryTimeout(time.Millisecond, core.Then(core.Sleep(time.Hour), core.Return(1)))
	r, e, err := core.Run(m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if !r.Expired || r.Exc != nil {
		t.Fatalf("want expired, got %+v", r)
	}
}

// TestTryTimeoutBodyThrew is the satellite's point: "expired" and "the
// body itself failed" are different answers, reported in different
// fields, with no exception-string matching anywhere.
func TestTryTimeoutBodyThrew(t *testing.T) {
	m := core.TryTimeout(time.Hour, core.Throw[int](exc.ErrorCall{Msg: "genuine failure"}))
	r, e, err := core.Run(m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if r.Expired {
		t.Fatalf("a body failure must not read as expiry: %+v", r)
	}
	if r.Exc == nil || !r.Exc.Eq(exc.ErrorCall{Msg: "genuine failure"}) {
		t.Fatalf("want captured ErrorCall, got %+v", r)
	}
}

// TestTryTimeoutAlertPropagates: the body raising an alert (here
// ThreadKilled) is cancellation, not failure — TryTimeout must let it
// propagate rather than report it in Exc, per the §9 two-datatype rule.
func TestTryTimeoutAlertPropagates(t *testing.T) {
	m := core.TryTimeout(time.Hour, core.Throw[int](exc.ThreadKilled{}))
	_, e, err := core.Run(m)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if e == nil || !e.Eq(exc.ThreadKilled{}) {
		t.Fatalf("want ThreadKilled to propagate, got exc=%v", e)
	}
}

// TestTryTimeoutCallerKillNotSwallowed kills a thread that is waiting
// inside TryTimeout. The kill must terminate the caller — if TryTimeout
// used a plain Try it would convert the caller's own death into a
// "body threw" result and the thread would carry on, which is exactly
// the bug the alert design exists to prevent.
func TestTryTimeoutCallerKillNotSwallowed(t *testing.T) {
	prog := core.Bind(core.NewEmptyMVar[string](), func(res core.MVar[string]) core.IO[core.Maybe[string]] {
		victim := core.Bind(
			core.TryTimeout(time.Hour, core.Then(core.Sleep(time.Hour), core.Return(1))),
			func(r core.TimeoutResult[int]) core.IO[core.Unit] {
				// Reaching here means the kill was swallowed.
				return core.Put(res, fmt.Sprintf("survived: %+v", r))
			})
		return core.Bind(core.Fork(victim), func(tid core.ThreadID) core.IO[core.Maybe[string]] {
			return core.Then(core.Sleep(time.Millisecond),
				core.Then(core.KillThread(tid),
					core.Then(core.Sleep(time.Millisecond),
						core.Timeout(time.Millisecond, core.Take(res)))))
		})
	})
	v, e, err := core.Run(prog)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v.IsJust {
		t.Fatalf("kill swallowed by TryTimeout: %q", v.Value)
	}
}

// --- Cross-shard throwTo vs timer-driven timeout expiry --------------------

// raceOutcome runs one victim under TryTimeout on the parallel engine
// and throws an external ErrorCall at it after attack; budget and
// attack choose which event wins. The victim classifies its fate.
func raceOutcome(t *testing.T, shards int, seed int64, budget, attack time.Duration) (string, uint64, uint64, uint64) {
	t.Helper()
	opts := core.ParallelOptions(shards)
	opts.RandomSched = true
	opts.Seed = seed
	opts.TimeSlice = 3
	sys := core.NewSystem(opts)

	prog := core.Bind(core.NewEmptyMVar[string](), func(res core.MVar[string]) core.IO[string] {
		classified := core.Bind(
			core.TryTimeout(budget, core.Then(core.Sleep(time.Hour), core.Return(7))),
			func(r core.TimeoutResult[int]) core.IO[string] {
				if r.Expired {
					return core.Return("expired")
				}
				// EitherIO relays an exception received by the caller to
				// both children; if the body child's Put wins the
				// post-relay race, the (non-alert) external surfaces as
				// a captured body failure rather than propagating.
				if r.Exc != nil && r.Exc.Eq(exc.ErrorCall{Msg: "external"}) {
					return core.Return("external-captured")
				}
				return core.Return(fmt.Sprintf("unexpected: %+v", r))
			})
		guarded := core.Catch(classified, func(e core.Exception) core.IO[string] {
			if exc.IsAlertException(e) {
				return core.Throw[string](e)
			}
			return core.Return("external")
		})
		victim := core.Bind(guarded, func(s string) core.IO[core.Unit] { return core.Put(res, s) })
		// Filler workers lengthen the spawn shard's run queue so the
		// work-stealers migrate threads — including, often, the victim.
		filler := core.ReplicateM_(3, core.Then(core.Yield(), core.Sleep(10*time.Microsecond)))
		spawnFillers := core.Seq(
			core.Void(core.Fork(filler)), core.Void(core.Fork(filler)),
			core.Void(core.Fork(filler)), core.Void(core.Fork(filler)))
		return core.Then(spawnFillers,
			core.Bind(core.Fork(victim), func(tid core.ThreadID) core.IO[string] {
				return core.Then(core.Sleep(attack),
					core.Then(core.ThrowTo(tid, exc.ErrorCall{Msg: "external"}),
						core.Take(res)))
			}))
	})
	got, e, err := core.RunSystem(sys, prog)
	if err != nil || e != nil {
		t.Fatalf("shards=%d seed=%d: %v %v", shards, seed, err, e)
	}
	st := sys.Stats()
	return got, st.Delivered, st.ThrowToDead, st.CrossShardThrowTo
}

// TestCrossShardThrowToVsTimeoutExpiry is the satellite-3 race: an
// external cross-shard throwTo and a timer-driven timeout expiry chase
// the same victim, in both orders, seeded, at 2 and 4 shards. Under the
// virtual clock the winner is determined by the budgets: the loser must
// neither corrupt the outcome nor resurrect the victim.
func TestCrossShardThrowToVsTimeoutExpiry(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	var cross uint64
	for _, shards := range []int{2, 4} {
		for seed := 0; seed < seeds; seed++ {
			// Order 1: the external throw lands before the budget runs
			// out. Two shapes are legitimate — EitherIO relays the
			// exception to BOTH children, and which child's Put wins the
			// post-relay race is a real scheduling race: the sleep
			// child's tag-2 reply rethrows it out of TryTimeout
			// ("external"), while the body child's CatchNonAlert
			// captures the non-alert ErrorCall as a body failure
			// ("external-captured"). Either way the throw won: the
			// budget never expired and the exception was delivered.
			got, delivered, _, c1 := raceOutcome(t, shards, int64(seed), 50*time.Millisecond, 2*time.Millisecond)
			if got != "external" && got != "external-captured" {
				t.Fatalf("shards=%d seed=%d throw-first: got %q, want external or external-captured", shards, seed, got)
			}
			if delivered == 0 {
				t.Fatalf("shards=%d seed=%d throw-first: no async delivery recorded", shards, seed)
			}
			// Order 2: the budget expires first; the late throw hits a
			// thread that already finished (trivial success, §5).
			got, _, dead, c2 := raceOutcome(t, shards, int64(seed), 2*time.Millisecond, 50*time.Millisecond)
			if got != "expired" {
				t.Fatalf("shards=%d seed=%d expiry-first: got %q, want expired", shards, seed, got)
			}
			if dead == 0 {
				t.Fatalf("shards=%d seed=%d expiry-first: late throwTo should hit a dead thread", shards, seed)
			}
			cross += c1 + c2
		}
	}
	t.Logf("cross-shard throwTo deliveries across sweep: %d", cross)
}

// TestCrossShardThrowToKillStorm forks a crowd of victims parked inside
// TryTimeout and kills them all. Victims alternate between shards 0
// and 1 (ForkOn), so whichever shard the killer runs on, some of the
// kills must travel as cross-shard mailbox messages — without relying
// on the OS to give a second shard a steal.
func TestCrossShardThrowToKillStorm(t *testing.T) {
	const victims = 32
	for _, shards := range []int{2, 4} {
		opts := core.ParallelOptions(shards)
		opts.Seed = 1
		opts.TimeSlice = 3
		sys := core.NewSystem(opts)
		prog := core.Bind(core.NewMVar(0), func(done core.MVar[int]) core.IO[int] {
			victim := core.OnException(
				core.Void(core.TryTimeout(time.Hour, core.Then(core.Sleep(time.Hour), core.Return(1)))),
				core.ModifyMVar(done, func(n int) core.IO[int] { return core.Return(n + 1) }))
			var spawn func(i int, tids []core.ThreadID) core.IO[int]
			spawn = func(i int, tids []core.ThreadID) core.IO[int] {
				if i == 0 {
					kills := core.Return(core.UnitValue)
					for _, tid := range tids {
						k := tid
						kills = core.Then(kills, core.KillThread(k))
					}
					// Let every kill land, then read the tally.
					await := core.IterateUntil(core.Then(core.Sleep(time.Millisecond),
						core.Map(core.Read(done), func(n int) bool { return n == victims })))
					return core.Then(core.Sleep(time.Millisecond),
						core.Then(kills, core.Then(await, core.Read(done))))
				}
				return core.Bind(core.ForkOn(i%2, victim, "victim"), func(tid core.ThreadID) core.IO[int] {
					return spawn(i-1, append(tids, tid))
				})
			}
			return spawn(victims, nil)
		})
		n, e, err := core.RunSystem(sys, prog)
		if err != nil || e != nil {
			t.Fatalf("shards=%d: %v %v", shards, err, e)
		}
		if n != victims {
			t.Fatalf("shards=%d: %d/%d victims saw the kill", shards, n, victims)
		}
		if st := sys.Stats(); st.CrossShardThrowTo == 0 {
			t.Fatalf("shards=%d: no cross-shard throwTo exercised (stats %+v)", shards, st)
		}
	}
}
