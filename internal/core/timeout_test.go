package core_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/sched"
)

// --- Timeout against the paper's definition --------------------------------

// paperTimeout is §7.3 transcribed, the reference Timeout is checked
// against: timeout t a = either (sleep t) a, forking a sleeper thread.
func paperTimeout[A any](d time.Duration, a core.IO[A]) core.IO[core.Maybe[A]] {
	return core.Map(core.EitherIO(core.Sleep(d), a), func(r core.Either[core.Unit, A]) core.Maybe[A] {
		if r.IsLeft {
			return core.Nothing[A]()
		}
		return core.Just(r.Right)
	})
}

// timeoutImpl is a Timeout rendered to strings, so scenarios can nest it.
type timeoutImpl func(d time.Duration, a core.IO[string]) core.IO[string]

func showMaybe(r core.Maybe[string]) string {
	if !r.IsJust {
		return "nothing"
	}
	return "just(" + r.Value + ")"
}

var (
	newTimeout timeoutImpl = func(d time.Duration, a core.IO[string]) core.IO[string] {
		return core.Map(core.Timeout(d, a), showMaybe)
	}
	refTimeout timeoutImpl = func(d time.Duration, a core.IO[string]) core.IO[string] {
		return core.Map(paperTimeout(d, a), showMaybe)
	}
)

func after(d time.Duration, v string) core.IO[string] {
	return core.Then(core.Sleep(d), core.Return(v))
}

// killedMidWait forks a caller that runs tmo under mask, kills it while
// it waits, and reports what the caller saw.
func killedMidWait(tmo timeoutImpl, mask func(core.IO[string]) core.IO[string]) core.IO[string] {
	return core.Bind(core.NewEmptyMVar[string](), func(out core.MVar[string]) core.IO[string] {
		body := core.Finally(after(time.Hour, "late"), core.PutStr("cleanup;"))
		timed := mask(core.Bind(tmo(10*time.Millisecond, body), func(r string) core.IO[string] {
			return core.Then(core.PutStr(r+";"), core.Return(r))
		}))
		caller := core.Bind(core.Try(timed), func(r core.Attempt[string]) core.IO[core.Unit] {
			return core.Put(out, fmt.Sprintf("%s/%v", r.Value, r.Exc))
		})
		return core.Bind(core.Fork(caller), func(tid core.ThreadID) core.IO[string] {
			return core.Then(core.Sleep(5*time.Millisecond), core.Then(core.KillThread(tid), core.Take(out)))
		})
	})
}

func unmasked(m core.IO[string]) core.IO[string] { return m }

var timeoutScenarios = []struct {
	name string
	prog func(tmo timeoutImpl) core.IO[string]
}{
	{"returns-in-time", func(tmo timeoutImpl) core.IO[string] {
		return tmo(10*time.Millisecond, after(time.Millisecond, "v"))
	}},
	{"returns-at-once", func(tmo timeoutImpl) core.IO[string] {
		return tmo(10*time.Millisecond, core.Return("v"))
	}},
	{"sleeps-past", func(tmo timeoutImpl) core.IO[string] {
		return tmo(10*time.Millisecond, after(time.Hour, "late"))
	}},
	{"raises", func(tmo timeoutImpl) core.IO[string] {
		return tmo(10*time.Millisecond, core.Then(core.Sleep(time.Millisecond), core.ThrowErrorCall[string]("boom")))
	}},
	{"catches-everything", func(tmo timeoutImpl) core.IO[string] {
		stubborn := core.Then(core.Forever(core.Catch(core.Sleep(time.Millisecond), func(core.Exception) core.IO[core.Unit] {
			return core.Return(core.UnitValue)
		})), core.Return("never"))
		return tmo(10*time.Millisecond, stubborn)
	}},
	{"nested-3-inner-expires", func(tmo timeoutImpl) core.IO[string] {
		return tmo(30*time.Millisecond, tmo(20*time.Millisecond, tmo(10*time.Millisecond, after(15*time.Millisecond, "v"))))
	}},
	{"nested-3-middle-expires", func(tmo timeoutImpl) core.IO[string] {
		return tmo(30*time.Millisecond, tmo(10*time.Millisecond, tmo(20*time.Millisecond, after(15*time.Millisecond, "v"))))
	}},
	{"nested-3-completes", func(tmo timeoutImpl) core.IO[string] {
		return tmo(30*time.Millisecond, tmo(20*time.Millisecond, tmo(10*time.Millisecond, after(5*time.Millisecond, "v"))))
	}},
	{"killed-unmasked", func(tmo timeoutImpl) core.IO[string] { return killedMidWait(tmo, unmasked) }},
	{"killed-block", func(tmo timeoutImpl) core.IO[string] { return killedMidWait(tmo, core.Block[string]) }},
	{"killed-uninterruptible", func(tmo timeoutImpl) core.IO[string] {
		return killedMidWait(tmo, core.BlockUninterruptible[string])
	}},
	{"block-expires", func(tmo timeoutImpl) core.IO[string] {
		return core.Block(tmo(10*time.Millisecond, after(time.Hour, "late")))
	}},
	{"uninterruptible-completes", func(tmo timeoutImpl) core.IO[string] {
		return core.BlockUninterruptible(tmo(10*time.Millisecond, after(time.Millisecond, "v")))
	}},
	{"zero-budget", func(tmo timeoutImpl) core.IO[string] {
		return tmo(0, core.Return("v"))
	}},
	{"negative-budget", func(tmo timeoutImpl) core.IO[string] {
		return tmo(-time.Second, after(time.Millisecond, "v"))
	}},
}

// timeoutOutcome runs m and renders its outcome. m's result is held
// for a moment of virtual time first, so every thread it killed has run
// its cleanup before the main thread ends the run (rule Proc GC).
func timeoutOutcome(opts core.Options, m core.IO[string]) string {
	sys := core.NewSystem(opts)
	settled := core.Bind(m, func(v string) core.IO[string] { return after(time.Millisecond, v) })
	v, e, err := core.RunSystem(sys, settled)
	return fmt.Sprintf("%q exc=%v err=%v out=%q", v, e, err, sys.Output())
}

// TestTimeoutRefinesPaperTimeout: every outcome (result, exception and
// console transcript) Timeout produces on a scenario is one the paper's
// either-based definition also produces, over 100 random schedules on
// the virtual clock at one and two shards.
func TestTimeoutRefinesPaperTimeout(t *testing.T) {
	const seeds = 100
	for _, sc := range timeoutScenarios {
		for _, shards := range []int{1, 2} {
			ref := map[string]bool{}
			got := map[string]int{}
			for seed := int64(0); seed < seeds; seed++ {
				opts := core.DefaultOptions()
				opts.Shards = shards
				opts.RandomSched = true
				opts.TimeSlice = 1 + int(seed%3)
				opts.Seed = seed
				ref[timeoutOutcome(opts, sc.prog(refTimeout))] = true
				got[timeoutOutcome(opts, sc.prog(newTimeout))]++
			}
			for o, n := range got {
				if !ref[o] {
					t.Errorf("%s shards=%d: Timeout produced %s (%d of %d runs); the paper's timeout produced only %v",
						sc.name, shards, o, n, seeds, ref)
				}
			}
		}
	}
}

// Timeout forks only the body: the deadline rides the caller's wait.
func TestTimeoutForksOnlyTheBody(t *testing.T) {
	m := core.Bind(core.SchedStats(), func(before sched.Stats) core.IO[uint64] {
		return core.Then(core.Timeout(time.Hour, core.Return(7)), core.Map(core.SchedStats(), func(now sched.Stats) uint64 {
			return now.Forks - before.Forks
		}))
	})
	forks, e, err := core.Run(m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if forks != 1 {
		t.Fatalf("Timeout(1h, Return) forked %d threads, want 1", forks)
	}
}

// A budget past the end of the clock saturates instead of wrapping into
// the past: the timeout never fires, so the body's result comes back.
func TestTimeoutHugeBudget(t *testing.T) {
	timed := core.Timeout(time.Duration(math.MaxInt64), core.Then(core.Sleep(time.Second), core.Return(7)))
	m := core.Then(core.Sleep(time.Millisecond), core.Bind(timed, func(r core.Maybe[int]) core.IO[string] {
		return core.Map(core.Now(), func(now int64) string { return fmt.Sprintf("%+v@%d", r, now) })
	}))
	got, e, err := core.Run(m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if want := fmt.Sprintf("%+v@%d", core.Just(7), int64(time.Second+time.Millisecond)); got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}
