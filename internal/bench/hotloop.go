package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/sched"
)

// HotLoop builds the H1 table: the scheduler hot-loop suite measuring
// raw steps/sec (empty-loop) and delivered throwTo/sec (throwto) at
// 1, 2, 4 and 8 shards. These are the paths the worker loop executes
// millions of times per second, where per-iteration channel selects,
// mutex probes and stats copies dominate; H1 is the regression gate
// every later PR runs against (see TestHotLoopGate and the CI hotloop
// job).
//
// Two empty-loop variants are reported:
//
//   - slice=1 is the microscope: with a one-step time slice every
//     scheduler-loop iteration runs exactly one interpreter step, so
//     the rate exposes the per-iteration overhead (stop-flag check,
//     mailbox probe, stats publication, clock sync) with nothing to
//     amortize it against. This is also the paper-faithful interleaving
//     mode (§4: a slice of 1 interleaves at every transition).
//   - slice=50 is the production default, where the same overheads are
//     amortized across 50 steps.
//
// The throwto workload runs thrower/catcher pairs: each catcher spins
// unmasked under a catch and the thrower lands `rounds` asynchronous
// exceptions on it; at 2+ shards the pairs distribute across shards so
// deliveries travel the cross-shard mailbox. The rate counts exceptions
// actually raised in their target (Stats.Delivered) per second, and the
// crossShard column reports how many throwTos crossed shards.
//
// This table is wall-clock and machine-dependent; the
// calibrate-spin row (a pure Go spin loop on one core) records the
// machine's speed so the CI gate can compare machine-normalized rates
// instead of raw ones. The baseline column is the pre-optimization
// rate captured on the development container at commit 5c2873c
// (before the atomic-flag/MPSC-ring hot-loop rewrite); speedup is
// current/baseline on the same machine class and is indicative only
// elsewhere.

// HotLoopConfig sizes the H1 suite.
type HotLoopConfig struct {
	// EmptySteps is the interpreter-step count per worker in the
	// empty-loop rows (one worker per shard).
	EmptySteps int
	// ThrowRounds is the number of exceptions per thrower/catcher pair.
	ThrowRounds int
	// Shards lists the shard counts to measure (1 = the default, one shard).
	Shards []int
}

// DefaultHotLoopConfig is the full suite run by axbench -run H1.
func DefaultHotLoopConfig() HotLoopConfig {
	return HotLoopConfig{EmptySteps: 400_000, ThrowRounds: 25_000, Shards: []int{1, 2, 4, 8}}
}

// ShortHotLoopConfig is the CI smoke/gate variant: same shape, ~10x
// smaller, still large enough to sit in the steady state.
func ShortHotLoopConfig() HotLoopConfig {
	return HotLoopConfig{EmptySteps: 60_000, ThrowRounds: 4_000, Shards: []int{1, 4}}
}

// hotLoopBaseline holds the pre-optimization rates (ops/sec) measured
// on the development container (1 CPU, go1.24) immediately before this
// PR's hot-loop rewrite: the scheduler as of commit 5c2873c plus only
// the ForkOn placement primitive the harness itself needs. The
// calibrate-spin reference is recorded alongside so the numbers can be
// machine-normalized. Keys are "workload/shards".
var hotLoopBaseline = map[string]float64{
	"empty-loop/slice=1/1":  44414460,
	"empty-loop/slice=1/2":  9945166,
	"empty-loop/slice=1/4":  10526347,
	"empty-loop/slice=1/8":  10304655,
	"empty-loop/slice=50/1": 127768055,
	"empty-loop/slice=50/2": 118840336,
	"empty-loop/slice=50/4": 122150205,
	"empty-loop/slice=50/8": 118537208,
	"throwto/1":             714735,
	"throwto/2":             295454,
	"throwto/4":             277638,
	"throwto/8":             259005,
}

// hotLoopBaselineCalib is the calibrate-spin rate of the machine the
// baseline was captured on.
var hotLoopBaselineCalib float64 = 469570951

// killH1 is the exception the throwto workload delivers; stopH1 is the
// thrower's final throw, telling the catcher to exit. (A separate stop
// sentinel is needed because a delivery landing while a previous
// exception is still unwinding replaces it — rule (Receive) fires at
// throw redexes too — so one catch window can consume several
// deliveries and counting handler entries would undercount.)
var (
	killH1 = exc.Dyn{Tag: "H1"}
	stopH1 = exc.Dyn{Tag: "H1stop"}
)

// hotLoopTrials is the per-row trial count: every row reports the best
// of this many runs. A shared container's wall clock jitters ±20%
// minute to minute; the maximum over a few trials is the standard
// microbenchmark estimator for the noise-free cost (noise only ever
// slows a run down, never speeds it up).
const hotLoopTrials = 3

// bestOf returns the maximum rate over n trials of f.
func bestOf(n int, f func() float64) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		if r := f(); r > best {
			best = r
		}
	}
	return best
}

// HotLoop runs the suite and builds the H1 table. Every row is the
// best of hotLoopTrials runs.
func HotLoop(cfg HotLoopConfig) *Table {
	t := &Table{
		ID:      "H1",
		Title:   "scheduler hot loop: steps/sec and delivered throwTo/sec, before/after the atomic-flag + MPSC-ring rewrite",
		Columns: []string{"workload", "shards", "rate", "unit", "baseline", "speedup", "crossShard"},
	}
	calib := bestOf(hotLoopTrials, CalibrateSpin)
	t.AddRow("calibrate-spin", "-", fmtRate(calib), "spins/sec", fmtRate(hotLoopBaselineCalib), "", "")

	for _, shards := range cfg.Shards {
		sh := shards
		r := bestOf(hotLoopTrials, func() float64 { return EmptyLoopRate(sh, 1, cfg.EmptySteps) })
		addHotRow(t, "empty-loop/slice=1", shards, r, "steps/sec", "")
	}
	for _, shards := range cfg.Shards {
		sh := shards
		r := bestOf(hotLoopTrials, func() float64 { return EmptyLoopRate(sh, 50, cfg.EmptySteps) })
		addHotRow(t, "empty-loop/slice=50", shards, r, "steps/sec", "")
	}
	for _, shards := range cfg.Shards {
		var cross uint64
		sh := shards
		r := bestOf(hotLoopTrials, func() float64 {
			rate, c := ThrowToRate(sh, cfg.ThrowRounds)
			cross = c
			return rate
		})
		addHotRow(t, "throwto", shards, r, "deliveries/sec", fmt.Sprintf("%d", cross))
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("each row is the best of %d trials; wall-clock and machine-dependent", hotLoopTrials),
		"baseline captured pre-rewrite at commit 5c2873c on the dev container (single run: sub-20% differences are noise)",
		"slice=1 exposes per-iteration scheduler-loop overhead (one step per iteration); slice=50 is the production default",
		"the CI hotloop job gates on the calibrate-normalized empty-loop and throwto rates at 4 shards (TestHotLoopGate)",
		fmt.Sprintf("measured with GOMAXPROCS=%d on %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	return t
}

// addHotRow appends one measurement row, joining it against the
// captured baseline.
func addHotRow(t *Table, workload string, shards int, rate float64, unit, cross string) {
	base := hotLoopBaseline[fmt.Sprintf("%s/%d", workload, shards)]
	speedup := "n/a"
	if base > 0 {
		speedup = fmt.Sprintf("%.2fx", rate/base)
	}
	t.AddRow(workload, shards, fmtRate(rate), unit, fmtRate(base), speedup, cross)
}

// fmtRate renders an ops/sec rate as a plain integer so the JSON
// artifact stays machine-parseable (see TestHotLoopGate).
func fmtRate(r float64) string { return fmt.Sprintf("%.0f", r) }

// spinSink defeats dead-code elimination in CalibrateSpin.
var spinSink uint64

// CalibrateSpin measures a pure Go spin loop (xorshift accumulate) in
// ops/sec on one goroutine: a machine-speed reference with none of the
// runtime's machinery, used to normalize the wall-clock H1 rates when
// gating across machines.
func CalibrateSpin() float64 {
	const n = 1 << 24
	x := uint64(0x9E3779B97F4A7C15)
	start := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	wall := time.Since(start)
	spinSink += x
	return float64(n) / wall.Seconds()
}

// EmptyLoopRate measures steps/sec: one worker thread per shard, each
// spinning on Forever(Return(unit)) — a cyclic program node that costs
// zero allocations per iteration — with the run bounded by the
// MaxSteps fuel limit. This is the common case the paper's
// implementation section demands be nearly free (a thread that is not
// being interrupted): because the workload itself allocates nothing
// and computes nothing, the rate is the scheduler+interpreter hot loop
// and only that.
func EmptyLoopRate(shards, slice, steps int) float64 {
	return EmptyLoopRateSim(shards, slice, steps, nil)
}

// EmptyLoopRateSim is EmptyLoopRate with the scheduling decisions
// routed through src (nil = live defaults): the S2 table measures the
// simulation seam's recording overhead on exactly the H1 workloads.
func EmptyLoopRateSim(shards, slice, steps int, src core.SimSource) float64 {
	opts := core.ParallelOptions(shards)
	opts.TimeSlice = slice
	opts.Sim = src
	workers := shards
	if workers < 1 {
		workers = 1
	}
	opts.MaxSteps = uint64(steps * workers)
	sys := core.NewSystem(opts)
	spin := core.Forever(core.Return(core.UnitValue))
	prog := core.Bind(core.NewEmptyMVar[core.Unit](), func(never core.MVar[core.Unit]) core.IO[core.Unit] {
		setup := core.Return(core.UnitValue)
		for w := 0; w < workers; w++ {
			setup = core.Then(setup, core.Void(core.ForkOn(w, spin, fmt.Sprintf("worker%d", w))))
		}
		// Main parks forever; the fuel bound is what ends the run.
		return core.Then(setup, core.Void(core.Take(never)))
	})
	start := time.Now()
	_, e, err := core.RunSystem(sys, prog)
	wall := time.Since(start)
	if !errors.Is(err, sched.ErrFuelExhausted) {
		panic(fmt.Sprintf("bench: hotloop empty shards=%d: %v %v", shards, e, err))
	}
	return float64(sys.Stats().Steps) / wall.Seconds()
}

// ThrowToRate measures delivered throwTo/sec: max(1, shards/2)
// thrower/catcher pairs placed with ForkOn — thrower on shard 2i,
// catcher on shard 2i+1 — so at 2+ shards every throw crosses shards
// and travels the mailbox machinery. Each round the thrower lands one
// asynchronous exception (the paper's default §5 design) on a catcher
// parked interruptibly inside an Unblock window (rule Interrupt), and
// waits for the handler's MVar ack before throwing again. The ack
// bounds in-flight exceptions to one per pair — flow control, so the
// rate measures the round-trip cost of the cross-shard kill machinery
// (message, interrupt-at-park, handler, committed-handoff wakeup back)
// rather than an unbounded pending-queue flood. Returns the delivery
// rate and the number of throwTos that crossed shards.
func ThrowToRate(shards, rounds int) (rate float64, crossShard uint64) {
	return ThrowToRateSim(shards, rounds, nil)
}

// ThrowToRateSim is ThrowToRate with the scheduling decisions routed
// through src (nil = live defaults); see EmptyLoopRateSim.
func ThrowToRateSim(shards, rounds int, src core.SimSource) (rate float64, crossShard uint64) {
	opts := core.ParallelOptions(shards)
	opts.Sim = src
	sys := core.NewSystem(opts)
	pairs := shards / 2
	if pairs < 1 {
		pairs = 1
	}

	// catcher: Block from the very first node, so the only delivery
	// points it ever exposes are inside the Unblock(Take never) window,
	// where the catch frame protects them. The handler acks each
	// exception and exits when it sees the thrower's stop sentinel.
	mkCatcher := func(never, ack, done core.MVar[core.Unit]) core.IO[core.Unit] {
		one := core.Catch(
			core.Then(core.Unblock(core.Void(core.Take(never))), core.Return(false)),
			func(e core.Exception) core.IO[bool] {
				return core.Then(core.Put(ack, core.UnitValue), core.Return(e.Eq(stopH1)))
			})
		var loop func() core.IO[core.Unit]
		loop = func() core.IO[core.Unit] {
			return core.Bind(one, func(stopped bool) core.IO[core.Unit] {
				if stopped {
					return core.Return(core.UnitValue)
				}
				return core.Delay(loop)
			})
		}
		return core.Then(core.Block(loop()), core.Put(done, core.UnitValue))
	}

	prog := core.Bind(core.NewEmptyMVar[core.Unit](), func(done core.MVar[core.Unit]) core.IO[core.Unit] {
		var spawnPair func(i int) core.IO[core.Unit]
		spawnPair = func(i int) core.IO[core.Unit] {
			if i == 0 {
				return core.ReplicateM_(2*pairs, core.Void(core.Take(done)))
			}
			return core.Bind(core.NewEmptyMVar[core.Unit](), func(never core.MVar[core.Unit]) core.IO[core.Unit] {
				return core.Bind(core.NewEmptyMVar[core.Unit](), func(ack core.MVar[core.Unit]) core.IO[core.Unit] {
					catcher := mkCatcher(never, ack, done)
					return core.Bind(core.ForkOn(2*(i-1)+1, catcher, fmt.Sprintf("catcher%d", i)), func(cid core.ThreadID) core.IO[core.Unit] {
						round := core.Then(core.ThrowTo(cid, killH1), core.Void(core.Take(ack)))
						thrower := core.Seq(
							core.ReplicateM_(rounds-1, round),
							core.ThrowTo(cid, stopH1),
							core.Void(core.Take(ack)),
							core.Put(done, core.UnitValue))
						return core.Then(core.Void(core.ForkOn(2*(i-1), thrower, fmt.Sprintf("thrower%d", i))), spawnPair(i-1))
					})
				})
			})
		}
		return spawnPair(pairs)
	})

	start := time.Now()
	if _, e, err := core.RunSystem(sys, prog); err != nil || e != nil {
		panic(fmt.Sprintf("bench: hotloop throwto shards=%d: %v %v", shards, e, err))
	}
	wall := time.Since(start)
	st := sys.Stats()
	return float64(st.Delivered) / wall.Seconds(), st.CrossShardThrowTo
}
