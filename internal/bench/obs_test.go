package bench_test

import (
	"strings"
	"testing"

	"asyncexc/internal/bench"
	"asyncexc/internal/core"
	"asyncexc/internal/obs"
)

// TestObsOverheadGate is the CI smoke gate for the <5% tracing-overhead
// budget: recording must not measurably slow the ObsWorkloads. One
// wall-clock sample is too noisy to gate on, so each attempt takes the
// best of several runs per side, and the gate passes as soon as any
// attempt lands under the threshold — a true regression (recording on
// the hot path gaining a lock or an allocation) fails every attempt.
//
// A wall-clock ratio is only meaningful on a quiet host: when the
// whole suite runs in parallel (go test ./...), sibling packages'
// soaks contend for cores and inflate the traced side arbitrarily. A
// regression and a busy host are distinguishable by the attempt
// spread — a real hot-path cost is consistent across attempts, while
// contention makes the ratios bounce. A noisy over-budget result is
// therefore a skip, not a failure; the CI observability job runs this
// test in isolation, where the strict gate is reliable.
func TestObsOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate")
	}
	if raceEnabled {
		t.Skip("wall-clock gate: race instrumentation dominates the measured path")
	}
	const threshold = 1.05
	const maxSpread = 1.05 // attempt ratios varying beyond this = contended host
	workloads := []string{}
	for _, w := range bench.ObsWorkloads(20000) {
		best, worst := 0.0, 0.0
		ok := false
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			base, traced, st := bench.MeasureObsOverhead(w, 3)
			if st.Recorded == 0 {
				t.Fatalf("%s: traced run recorded no events", w.Name())
			}
			ratio := float64(traced) / float64(base)
			if best == 0 || ratio < best {
				best = ratio
			}
			if ratio > worst {
				worst = ratio
			}
			ok = ratio < threshold
		}
		if !ok {
			if worst/best > maxSpread {
				t.Skipf("%s: overhead %.1f%% over budget but attempt spread %.1f%% says the host is contended; the dedicated CI run gates this",
					w.Name(), (best-1)*100, (worst/best-1)*100)
			}
			t.Errorf("%s: tracing overhead %.1f%% exceeds %.0f%% on every attempt",
				w.Name(), (best-1)*100, (threshold-1)*100)
		}
		workloads = append(workloads, w.Name())
	}
	if len(workloads) != 3 || !strings.Contains(strings.Join(workloads, ","), "mvar-pingpong") {
		t.Fatalf("unexpected workload set %v", workloads)
	}
}

// TestObsOverheadTableShape pins O1's structure: every workload rows
// once, the traced runs see events, and nothing panics at small sizes.
func TestObsOverheadTableShape(t *testing.T) {
	tb := bench.ObsOverhead(500)
	if len(tb.Rows) != 3 {
		t.Fatalf("O1 should have 3 rows:\n%s", tb)
	}
	for i := range tb.Rows {
		if n := cellInt(t, tb, i, 5); n == 0 {
			t.Fatalf("O1 row %d recorded no events:\n%s", i, tb)
		}
	}
}

// BenchmarkObsOverhead reports the per-iteration cost of the traced
// pingpong workload so `go test -bench` runs surface recording-path
// regressions as ns/op movement; compare against BenchmarkObsBaseline.
func BenchmarkObsOverhead(b *testing.B) {
	benchPingpong(b, true)
}

// BenchmarkObsBaseline is the identical workload with recording off.
func BenchmarkObsBaseline(b *testing.B) {
	benchPingpong(b, false)
}

func benchPingpong(b *testing.B, traced bool) {
	w := bench.ObsWorkloads(2000)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := core.ParallelOptions(1)
		if traced {
			opts.Observer = obs.NewRecorder(0)
		}
		sys := core.NewSystem(opts)
		if _, e, err := core.RunSystem(sys, w.Prog()); err != nil || e != nil {
			b.Fatalf("%v %v", e, err)
		}
	}
}
