package bench

import (
	"fmt"
	"runtime"
	"time"

	"asyncexc/internal/chaos"
	"asyncexc/internal/core"
	"asyncexc/internal/sim"
)

// SimOverhead builds the S2 table: the cost of recording a schedule
// log (internal/sim, docs/SIMULATION.md) on the H1 hot-loop workloads
// plus the killstorm soak, each measured recorder-off and recorder-on.
//
// The one-shard rows are the gate (<10% overhead, TestSimOverheadGate):
// there the recorder's cost is the decision seam — the simulation
// driver stepping the shard in place of its worker loop, plus an append
// per observed event — and that is the price every recorded soak pays. The killstorm row
// is the realistic worst case: the seeded random scheduler logs one
// event per run-queue pick, so recording cost scales with pick rate,
// not step rate.
//
// The 4-shard row is informational, not gated: with a SimSource
// attached the shards are stepped by the single-goroutine simulated
// driver (they take turns, never overlap), so the comparison against
// free-running workers measures the price of determinism
// itself rather than recording overhead.

// SimOverheadConfig sizes the S2 suite.
type SimOverheadConfig struct {
	// EmptySteps is the per-worker step count for the empty-loop rows.
	EmptySteps int
	// ThrowRounds is the exception count for the throwto row.
	ThrowRounds int
	// SoakScale multiplies the killstorm workload (1 = the ~200k-step
	// scenario).
	SoakScale int
}

// DefaultSimOverheadConfig is the full suite run by axbench -run S2.
// The sizes put each trial in the ~100ms range: on a small shared
// machine the true recording overhead (a few percent) is swamped by
// ambient noise unless individual trials are long enough to average
// over it.
func DefaultSimOverheadConfig() SimOverheadConfig {
	return SimOverheadConfig{EmptySteps: 1_000_000, ThrowRounds: 100_000, SoakScale: 2}
}

// ShortSimOverheadConfig is the CI gate variant.
func ShortSimOverheadConfig() SimOverheadConfig {
	return SimOverheadConfig{EmptySteps: 400_000, ThrowRounds: 50_000, SoakScale: 1}
}

// simRecorder builds a fresh recorder per trial (the log grows, so
// reuse would measure append-into-large-slice instead of steady state).
func simRecorder() *sim.Recorder {
	return sim.NewRecorder(sim.Header{Name: "bench", Seed: 1})
}

// killstormRate measures the soak in steps/sec: the chaos scenario
// under the seeded random scheduler — the exact conditions soaks are
// recorded under, where every run-queue pick is observed.
func killstormRate(scale int, src core.SimSource) float64 {
	cfg := chaos.Config{
		Seed: 5, Workers: 8, Increments: 150 * scale,
		Producers: 6, Tokens: 200 * scale,
		PoolSize: 3, PoolJobs: 30,
		Kills:    12,
		MaxSteps: 50_000_000,
		Sim:      src,
	}
	start := time.Now()
	rep, err := chaos.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("bench: sim killstorm: %v", err))
	}
	return float64(rep.Steps) / wall.Seconds()
}

// SimOverhead runs the suite and builds the S2 table. Every rate is
// the best of hotLoopTrials runs, recorder-off and recorder-on
// measured back to back per row.
func SimOverhead(cfg SimOverheadConfig) *Table {
	t := &Table{
		ID:      "S2",
		Title:   "schedule-recording overhead: H1 hot-loop rows and the killstorm soak, recorder off vs on",
		Columns: []string{"workload", "shards", "off", "on", "unit", "overhead", "gated"},
	}
	calib := bestOf(hotLoopTrials, CalibrateSpin)
	t.AddRow("calibrate-spin", "-", fmtRate(calib), "", "spins/sec", "", "")

	// simTrials is higher than hotLoopTrials and the off/on runs are
	// interleaved: ambient load on a shared machine drifts over seconds,
	// and measuring all-off then all-on lets that drift masquerade as
	// recording overhead. Alternating pairs put both sides of each ratio
	// under the same conditions; best-of-each then discards the slow
	// outliers on both sides symmetrically.
	const simTrials = 9
	addSimRow := func(workload string, shards int, unit string, gated bool, run func(src core.SimSource) float64) {
		var off, on float64
		for i := 0; i < simTrials; i++ {
			if r := run(nil); r > off {
				off = r
			}
			if r := run(simRecorder()); r > on {
				on = r
			}
		}
		overhead := "n/a"
		if off > 0 {
			overhead = fmt.Sprintf("%.1f%%", (1-on/off)*100)
		}
		g := ""
		if gated {
			g = "yes"
		}
		t.AddRow(workload, shards, fmtRate(off), fmtRate(on), unit, overhead, g)
	}

	addSimRow("empty-loop/slice=1", 1, "steps/sec", true, func(src core.SimSource) float64 {
		return EmptyLoopRateSim(1, 1, cfg.EmptySteps, src)
	})
	addSimRow("empty-loop/slice=50", 1, "steps/sec", true, func(src core.SimSource) float64 {
		return EmptyLoopRateSim(1, 50, cfg.EmptySteps, src)
	})
	addSimRow("throwto", 1, "deliveries/sec", true, func(src core.SimSource) float64 {
		r, _ := ThrowToRateSim(1, cfg.ThrowRounds, src)
		return r
	})
	addSimRow("killstorm-soak", 1, "steps/sec", true, func(src core.SimSource) float64 {
		return killstormRate(cfg.SoakScale, src)
	})
	addSimRow("empty-loop/slice=50", 4, "steps/sec", false, func(src core.SimSource) float64 {
		return EmptyLoopRateSim(4, 50, cfg.EmptySteps, src)
	})

	t.Notes = append(t.Notes,
		fmt.Sprintf("each rate is the best of %d interleaved off/on trials; wall-clock and machine-dependent", simTrials),
		"gated rows must stay under 10% overhead (TestSimOverheadGate, CI sim job, SIM_GATE=1)",
		"killstorm-soak records under the seeded random scheduler: one event per run-queue pick, the recorded-soak steady state",
		"the 4-shard row is informational: a SimSource switches the engine to the serialized simulated driver, so it prices determinism, not recording",
		fmt.Sprintf("measured with GOMAXPROCS=%d on %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	return t
}
