package bench

import (
	"fmt"
	"strings"
	"time"

	"asyncexc/internal/conformance"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/machine"
	"asyncexc/internal/poll"
	"asyncexc/internal/sched"
)

// killX is the exception the experiments throw.
var killX = exc.Dyn{Tag: "Cancel"}

// runSteps runs m on a fresh system and returns (value, steps,
// main-thread stack high water).
func runSteps[A any](opts core.Options, m core.IO[A]) (A, uint64, int, error) {
	sys := core.NewSystem(opts)
	v, e, err := core.RunSystem(sys, m)
	if err == nil && e != nil {
		err = exc.AsError(e)
	}
	hw := 0
	if t := sys.RT().MainThread(); t != nil {
		hw = t.StackHighWater()
	}
	return v, sys.Stats().Steps, hw, err
}

// ---------------------------------------------------------------------
// E7 — §8.1 frame cancellation: constant stack for block/unblock
// recursion, and its ablation.
// ---------------------------------------------------------------------

// MaskFrames builds the E7 table: recursion depth vs main-thread stack
// high water with the §8.1 cancellation on and off.
func MaskFrames(depths []int) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "stack frames for f = block (unblock f) recursion (§8.1)",
		Columns: []string{"depth", "frames (cancellation on)", "frames (ablated)"},
		Notes: []string{
			"the paper's step 3 removes adjacent opposite mask frames; without it the stack grows two frames per recursion",
		},
	}
	prog := func(depth int) core.IO[int] {
		var f func(n int) core.IO[int]
		f = func(n int) core.IO[int] {
			if n == 0 {
				return core.Return(0)
			}
			return core.Block(core.Unblock(core.Delay(func() core.IO[int] { return f(n - 1) })))
		}
		return f(depth)
	}
	for _, d := range depths {
		_, _, hwOn, err1 := runSteps(core.DefaultOptions(), prog(d))
		ablated := core.DefaultOptions()
		ablated.DisableFrameCancellation = true
		_, _, hwOff, err2 := runSteps(ablated, prog(d))
		if err1 != nil || err2 != nil {
			t.AddRow(d, errCell(err1), errCell(err2))
			continue
		}
		t.AddRow(d, hwOn, hwOff)
	}
	return t
}

func errCell(err error) string {
	if err == nil {
		return "ok"
	}
	return "error: " + err.Error()
}

// ---------------------------------------------------------------------
// E8 — §8.2/§9 throwTo designs: asynchronous vs synchronous
// ---------------------------------------------------------------------

// ThrowToDesigns measures, for a target masked for `work` steps, how
// many scheduler steps pass (a) before throwTo returns to the caller
// and (b) before the exception is delivered, under both designs.
func ThrowToDesigns(workloads []int) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "throwTo designs (§9): steps until return vs until delivery",
		Columns: []string{"target masked work", "design", "throwTo return", "delivery"},
		Notes: []string{
			"async throwTo returns immediately regardless of the target's state; sync throwTo waits for delivery (paper chooses async)",
		},
	}
	for _, w := range workloads {
		for _, syncMode := range []bool{false, true} {
			opts := core.DefaultOptions()
			opts.SyncThrowTo = syncMode
			ret, del := throwToLatency(opts, w)
			design := "async"
			if syncMode {
				design = "sync"
			}
			t.AddRow(w, design, ret, del)
		}
	}
	return t
}

// throwToLatency runs the scenario and returns (steps for throwTo to
// return, steps until delivery), both measured from the throwTo call.
// Delivery is read at the entry of the target's handler, a constant
// number of unwinding steps after the exception is raised.
func throwToLatency(opts core.Options, work int) (uint64, uint64) {
	var tThrow, tReturn, tDeliver uint64
	steps := func() core.IO[uint64] { return core.FromNode[uint64](sched.Steps()) }
	busy := core.ReplicateM_(work, core.Return(core.UnitValue))
	prog := core.Bind(core.NewEmptyMVar[core.Unit](), func(ready core.MVar[core.Unit]) core.IO[core.Unit] {
		target := core.Catch(
			core.Block(core.Seq(core.Put(ready, core.UnitValue), core.Void(busy),
				core.SafePoint())),
			func(core.Exception) core.IO[core.Unit] {
				return core.Bind(steps(), func(s uint64) core.IO[core.Unit] {
					tDeliver = s
					return core.Return(core.UnitValue)
				})
			})
		return core.Bind(core.Fork(target), func(tid core.ThreadID) core.IO[core.Unit] {
			return core.Bind(core.Take(ready), func(core.Unit) core.IO[core.Unit] {
				return core.Bind(steps(), func(s0 uint64) core.IO[core.Unit] {
					return core.Then(core.ThrowTo(tid, killX),
						core.Bind(steps(), func(s1 uint64) core.IO[core.Unit] {
							tThrow, tReturn = s0, s1
							return core.Sleep(time.Hour) // drain: let target finish
						}))
				})
			})
		})
	})
	sys := core.NewSystem(opts)
	core.RunSystem(sys, prog) //nolint:errcheck // measurement run
	if tDeliver < tThrow {
		tDeliver = tThrow
	}
	return tReturn - tThrow, tDeliver - tThrow
}

// ---------------------------------------------------------------------
// E9 — fully-asynchronous vs semi-asynchronous (polling) cancellation
// ---------------------------------------------------------------------

// PollingVsAsync builds the E9 table: for each poll period, the
// uncancelled overhead versus the cancellation latency; the async row
// is the paper's model.
func PollingVsAsync(pollPeriods []int, units, unitCost, cancelAt int) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "semi-async polling vs fully-async exceptions (§2, §10)",
		Columns: []string{"mode", "poll period", "uncancelled overhead %", "cancel latency (units)"},
		Notes: []string{
			fmt.Sprintf("workload: %d units x %d steps; cancellation requested at unit %d", units, unitCost, cancelAt),
			"polling trades overhead against latency; async exceptions have no overhead and sub-unit latency without instrumenting the workload",
		},
	}
	baseSteps := pollingFullRunSteps(units, unitCost, 0)
	for _, p := range pollPeriods {
		full := pollingFullRunSteps(units, unitCost, p)
		overhead := 100 * (float64(full) - float64(baseSteps)) / float64(baseSteps)
		latency := pollingCancelLatency(units, unitCost, p, cancelAt)
		t.AddRow("polling", p, overhead, latency)
	}
	t.AddRow("async", "-", 0.0, asyncCancelLatency(units, unitCost, cancelAt))
	return t
}

func pollingFullRunSteps(units, unitCost, period int) uint64 {
	prog := core.Bind(poll.NewToken(), func(tok poll.Token) core.IO[poll.WorkReport] {
		return poll.PollingWorker(tok, units, unitCost, period)
	})
	_, steps, _, _ := runSteps(core.DefaultOptions(), prog)
	return steps
}

// pollingCancelLatency cancels once the worker has done cancelAt units
// and reports how many extra units completed.
func pollingCancelLatency(units, unitCost, period, cancelAt int) int {
	prog := core.Bind(poll.NewToken(), func(tok poll.Token) core.IO[int] {
		return core.Bind(core.NewEmptyMVar[poll.WorkReport](), func(res core.MVar[poll.WorkReport]) core.IO[int] {
			progress := new(int)
			worker := core.Bind(poll.PollingWorkerProgress(tok, units, unitCost, period, progress),
				func(r poll.WorkReport) core.IO[core.Unit] { return core.Put(res, r) })
			var watch func() core.IO[core.Unit]
			watch = func() core.IO[core.Unit] {
				return core.Bind(core.Lift(func() bool { return *progress >= cancelAt }), func(reached bool) core.IO[core.Unit] {
					if reached {
						return tok.Cancel()
					}
					return core.Then(core.Yield(), core.Delay(watch))
				})
			}
			return core.Then(core.Void(core.Fork(worker)),
				core.Then(watch(),
					core.Bind(core.Take(res), func(r poll.WorkReport) core.IO[int] {
						return core.Return(r.UnitsDone - cancelAt)
					})))
		})
	})
	v, _, _, err := runSteps(core.DefaultOptions(), prog)
	if err != nil {
		return -1
	}
	return v
}

// asyncCancelLatency does the same with throwTo and an uninstrumented
// worker.
func asyncCancelLatency(units, unitCost, cancelAt int) int {
	prog := core.Bind(core.NewEmptyMVar[poll.WorkReport](), func(res core.MVar[poll.WorkReport]) core.IO[int] {
		progress := new(int)
		worker := poll.AsyncWorkerProgress(units, unitCost, res, progress)
		return core.Bind(core.Fork(worker), func(tid core.ThreadID) core.IO[int] {
			var watch func() core.IO[core.Unit]
			watch = func() core.IO[core.Unit] {
				return core.Bind(core.Lift(func() bool { return *progress >= cancelAt }), func(reached bool) core.IO[core.Unit] {
					if reached {
						return core.ThrowTo(tid, killX)
					}
					return core.Then(core.Yield(), core.Delay(watch))
				})
			}
			return core.Then(watch(),
				core.Bind(core.Take(res), func(r poll.WorkReport) core.IO[int] {
					return core.Return(r.UnitsDone - cancelAt)
				}))
		})
	})
	v, _, _, err := runSteps(core.DefaultOptions(), prog)
	if err != nil {
		return -1
	}
	return v
}

// ---------------------------------------------------------------------
// E6 — composable timeout cost
// ---------------------------------------------------------------------

// TimeoutNesting measures total scheduler steps for a unit of work
// wrapped in k nested Timeouts (none of which expire).
func TimeoutNesting(maxDepth int) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "nested Timeout cost (§7.3): steps for k nested timeouts around trivial work",
		Columns: []string{"nesting depth", "total steps", "steps/level"},
	}
	base := uint64(0)
	for k := 0; k <= maxDepth; k++ {
		var m core.IO[int] = core.Return(7)
		for i := 0; i < k; i++ {
			inner := m
			m = core.Map(core.Timeout(time.Hour, inner), func(r core.Maybe[int]) int {
				if r.IsJust {
					return r.Value
				}
				return -1
			})
		}
		_, steps, _, err := runSteps(core.DefaultOptions(), m)
		if err != nil {
			t.AddRow(k, errCell(err), "-")
			continue
		}
		if k == 0 {
			base = steps
			t.AddRow(k, steps, "-")
			continue
		}
		t.AddRow(k, steps, fmt.Sprintf("%.1f", float64(steps-base)/float64(k)))
	}
	return t
}

// ---------------------------------------------------------------------
// T1 — MVar operation costs
// ---------------------------------------------------------------------

// MVarOps measures steps per operation for uncontended and contended
// MVar traffic.
func MVarOps(pairs int) *Table {
	t := &Table{
		ID:      "T1",
		Title:   "MVar operation cost (steps per take+put pair)",
		Columns: []string{"scenario", "pairs", "total steps", "steps/pair"},
	}
	// Uncontended: one thread puts and takes.
	uncontended := core.Bind(core.NewMVar(0), func(mv core.MVar[int]) core.IO[core.Unit] {
		return core.ReplicateM_(pairs, core.Bind(core.Take(mv), func(v int) core.IO[core.Unit] {
			return core.Put(mv, v+1)
		}))
	})
	_, s1, _, _ := runSteps(core.DefaultOptions(), uncontended)
	t.AddRow("uncontended", pairs, s1, float64(s1)/float64(pairs))

	// Contended ping-pong: two threads alternate through two MVars.
	pingpong := core.Bind(core.NewEmptyMVar[int](), func(a core.MVar[int]) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[int](), func(b core.MVar[int]) core.IO[core.Unit] {
			echo := core.ReplicateM_(pairs, core.Bind(core.Take(a), func(v int) core.IO[core.Unit] {
				return core.Put(b, v)
			}))
			driver := core.ReplicateM_(pairs, core.Then(core.Put(a, 1), core.Void(core.Take(b))))
			return core.Then(core.Void(core.Fork(echo)), driver)
		})
	})
	_, s2, _, _ := runSteps(core.DefaultOptions(), pingpong)
	t.AddRow("ping-pong (2 threads)", pairs, s2, float64(s2)/float64(pairs))
	return t
}

// ---------------------------------------------------------------------
// T2 — fork cost
// ---------------------------------------------------------------------

// ForkCost measures steps per forked (trivial) thread.
func ForkCost(counts []int) *Table {
	t := &Table{
		ID:      "T2",
		Title:   "thread creation cost (steps per forkIO of a trivial thread)",
		Columns: []string{"threads", "total steps", "steps/thread"},
	}
	for _, n := range counts {
		prog := core.Then(
			core.ReplicateM_(n, core.Void(core.Fork(core.Return(core.UnitValue)))),
			core.Sleep(time.Millisecond)) // drain children
		_, steps, _, _ := runSteps(core.DefaultOptions(), prog)
		t.AddRow(n, steps, float64(steps)/float64(n))
	}
	return t
}

// ---------------------------------------------------------------------
// E1/E2 — the §5.1 locking race, measured
// ---------------------------------------------------------------------

// LockRace counts, over seeded random schedules, how often the unsafe
// §5.1 pattern loses its lock versus the safe §5.2/§5.3 pattern.
func LockRace(seeds int) *Table {
	t := &Table{
		ID:      "E1/E2",
		Title:   "lock-loss frequency under async exceptions (random schedules)",
		Columns: []string{"pattern", "schedules", "lock lost", "state restored", "update completed"},
		Notes: []string{
			"unsafe = §5.1 (catch after takeMVar); safe = §5.2/§5.3 (block + unblock + interruptible take)",
		},
	}
	run := func(safe bool) (lost, restored, completed int) {
		for seed := 0; seed < seeds; seed++ {
			opts := core.DefaultOptions()
			opts.TimeSlice = 1
			opts.RandomSched = true
			opts.Seed = int64(seed)
			outcome, _, _, err := runSteps(opts, lockScenario(safe))
			if err != nil {
				continue
			}
			switch outcome {
			case "lost":
				lost++
			case "restored":
				restored++
			case "completed":
				completed++
			}
		}
		return
	}
	for _, safe := range []bool{false, true} {
		name := "unsafe (§5.1)"
		if safe {
			name = "safe (§5.2)"
		}
		lost, restored, completed := run(safe)
		t.AddRow(name, seeds, lost, restored, completed)
	}
	return t
}

func lockScenario(safe bool) core.IO[string] {
	return core.Bind(core.NewMVar(100), func(lock core.MVar[int]) core.IO[string] {
		return core.Bind(core.NewEmptyMVar[core.Unit](), func(ready core.MVar[core.Unit]) core.IO[string] {
			compute := func(v int) core.IO[int] {
				return core.Then(core.ReplicateM_(3, core.Return(core.UnitValue)), core.Return(v+1))
			}
			var update core.IO[core.Unit]
			if safe {
				update = core.ModifyMVar(lock, compute)
			} else {
				update = core.UnsafeModifyMVar(lock, compute)
			}
			worker := core.Then(core.Put(ready, core.UnitValue), update)
			return core.Bind(core.Fork(worker), func(tid core.ThreadID) core.IO[string] {
				return core.Then(core.Seq(
					core.Void(core.Take(ready)),
					core.ThrowTo(tid, killX),
				), core.Bind(core.Try(core.Take(lock)), func(r core.Attempt[int]) core.IO[string] {
					switch {
					case r.Failed():
						return core.Return("lost")
					case r.Value == 100:
						return core.Return("restored")
					case r.Value == 101:
						return core.Return("completed")
					default:
						return core.Return("corrupted")
					}
				}))
			})
		})
	})
}

// ---------------------------------------------------------------------
// F4/F5 — rule coverage of the executable semantics
// ---------------------------------------------------------------------

// RuleCoverage explores a corpus of term-language programs and reports
// how often each Figure 4/Figure 5 rule fires.
func RuleCoverage() *Table {
	t := &Table{
		ID:      "F4/F5",
		Title:   "transition-rule coverage over the exploration corpus",
		Columns: []string{"rule", "transitions enumerated"},
	}
	programs := []struct {
		src   string
		input string
		opts  machine.Options
	}{
		{`putChar 'h' >> putChar 'i'`, "", machine.Options{EnvMayStall: true}},
		{`do { c <- getChar ; putChar c }`, "x", machine.Options{}},
		{`getChar`, "", machine.Options{}},
		{`sleep 5 >> return 3`, "", machine.Options{EnvMayStall: true}},
		{`do { m <- newEmptyMVar ; forkIO (sleep 2 >> putMVar m 7) ; takeMVar m }`, "", machine.Options{}},
		{`do { m <- newEmptyMVar ; putMVar m 1 ; forkIO (putMVar m 2) ; a <- takeMVar m ; b <- takeMVar m ; return (a + b) }`, "", machine.Options{}},
		{`myThreadId >>= \t -> return 0`, "", machine.Options{}},
		{`catch (throw #X >>= \x -> return x) (\e -> return 1)`, "", machine.Options{}},
		{`putChar (raise #Boom)`, "", machine.Options{}},
		{`catch (block (unblock (throw #X))) (\e -> return 0)`, "", machine.Options{}},
		{`block (return 1) >>= \x -> return x`, "", machine.Options{}},
		{`unblock (return 1) >>= \x -> return x`, "", machine.Options{}},
		{`do { m <- newEmptyMVar ; putMVar m 100 ; t <- forkIO (do { a <- takeMVar m ; b <- catch (return (a + 1)) (\e -> putMVar m a >> throw e) ; putMVar m b }) ; throwTo t #KillThread ; takeMVar m }`, "", machine.Options{}},
		{`do { m <- newEmptyMVar ; t <- forkIO (catch (takeMVar m >>= \x -> return ()) (\e -> putMVar m 1)) ; throwTo t #KillThread ; takeMVar m }`, "", machine.Options{}},
		{`do { t <- forkIO (return ()) ; throwTo t #X ; sleep 1 ; return 0 }`, "", machine.Options{}},
		{`do { t <- forkIO (throw #Die) ; sleep 1 ; return 0 }`, "", machine.Options{}},
	}
	cov := map[machine.Rule]int{}
	for _, p := range programs {
		st, err := machine.NewFromSource(p.src, p.input)
		if err != nil {
			continue
		}
		res := machine.Explore(st, p.opts, machine.Limits{})
		for r, n := range res.Coverage {
			cov[r] += n
		}
	}
	for _, r := range machine.AllRules {
		t.AddRow(string(r), cov[r])
	}
	return t
}

// ---------------------------------------------------------------------
// V1 — the paper's §7.2 either, verified by exhaustion
// ---------------------------------------------------------------------

// EitherVerification explores the paper's own either implementation
// (term-language transcription) in three scenarios and reports the
// state counts and outcome sets — the E5 semantics-level verification.
func EitherVerification() *Table {
	t := &Table{
		ID:      "V1",
		Title:   "exhaustive verification of the paper's §7.2 either implementation",
		Columns: []string{"scenario", "states", "deadlocks", "outcomes"},
		Notes: []string{
			"the implementation is the paper's code transcribed into the term language",
		},
	}
	either := func(a, b string) string {
		s := `
do { m <- newEmptyMVar ;
     block (do {
       aid <- forkIO (catch (unblock (@A) >>= \r -> putMVar m (A r)) (\e -> putMVar m (X e))) ;
       bid <- forkIO (catch (unblock (@B) >>= \r -> putMVar m (B r)) (\e -> putMVar m (X e))) ;
       r <- (rec loop -> catch (takeMVar m)
                               (\e -> throwTo aid e >>= \_ -> throwTo bid e >>= \_ -> loop)) ;
       throwTo aid #KillThread ;
       throwTo bid #KillThread ;
       case r of { A v -> return (Left v) ; B v -> return (Right v) ; X e -> throw e } }) }`
		s = strings.ReplaceAll(s, "@A", a)
		return strings.ReplaceAll(s, "@B", b)
	}
	scenarios := []struct {
		name        string
		a, b        string
		adversaries int
	}{
		{"pure race", `return 1`, `return 2`, 0},
		{"child exception", `throw #Efail`, `sleep 5 >> return 2`, 0},
		{"adversary", `return 1`, `return 2`, 1},
	}
	for _, sc := range scenarios {
		st, err := machine.NewWithAdversaries(either(sc.a, sc.b), "", sc.adversaries)
		if err != nil {
			t.AddRow(sc.name, "error", err.Error(), "-")
			continue
		}
		res := machine.Explore(st, machine.Options{}, machine.Limits{MaxStates: 2_000_000})
		deadlocks := 0
		for _, o := range res.Outcomes {
			if o.Wedged {
				deadlocks++
			}
		}
		t.AddRow(sc.name, res.States, deadlocks, len(res.Outcomes))
	}
	return t
}

// ---------------------------------------------------------------------
// C1 — conformance summary
// ---------------------------------------------------------------------

// Conformance runs the differential corpus and reports outcome-set
// sizes and membership checks.
func Conformance(randomRuns int) *Table {
	t := &Table{
		ID:      "C1",
		Title:   "runtime refines semantics (differential testing)",
		Columns: []string{"program", "machine outcomes", "machine states", "runtime runs", "violations"},
	}
	programs := []struct{ name, src string }{
		{"mvar-handoff", `do { m <- newEmptyMVar ; forkIO (putMVar m 42) ; takeMVar m }`},
		{"unsafe-lock", `do { m <- newEmptyMVar ; putMVar m 100 ; t <- forkIO (do { a <- takeMVar m ; b <- catch (return (a + 1)) (\e -> putMVar m a >> throw e) ; putMVar m b }) ; throwTo t #KillThread ; takeMVar m }`},
		{"safe-lock", `do { m <- newEmptyMVar ; putMVar m 100 ; t <- forkIO (block (do { a <- takeMVar m ; b <- catch (unblock (return (a + 1))) (\e -> putMVar m a >> throw e) ; putMVar m b })) ; throwTo t #KillThread ; takeMVar m }`},
		{"masked-pair", `do { m <- newEmptyMVar ; t <- forkIO (catch (block (putChar 'a' >> putChar 'b' >> putMVar m 0)) (\e -> putChar 'x' >> putMVar m 0)) ; throwTo t #KillThread ; takeMVar m }`},
	}
	schedules := conformance.DefaultSchedules(randomRuns)
	for _, p := range programs {
		spec, err := conformance.RunMachine(p.src, "")
		if err != nil {
			t.AddRow(p.name, "parse error", "-", "-", "-")
			continue
		}
		violations := 0
		for _, sch := range schedules {
			got, err := conformance.RunRuntime(p.src, "", sch)
			if err != nil {
				violations++
				continue
			}
			if _, ok := spec.Outcomes[got.Key()]; !ok {
				violations++
			}
		}
		t.AddRow(p.name, len(spec.Outcomes), spec.States, len(schedules), violations)
	}
	return t
}
