package asyncexc_test

import (
	"errors"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/sched"
)

// Allocation ceilings for the two hottest scheduler workloads. The
// per-RT free lists (bind/catch frames, stack segments) hold these
// flat; a regression that starts allocating per step or per handoff
// fails here long before it shows up in wall-clock numbers.

// runAllocsPerOp runs prog (iters operations) under
// testing.AllocsPerRun and returns average heap allocations per
// operation.
func runAllocsPerOp(t *testing.T, iters int, mk func(iters int) core.IO[core.Unit]) float64 {
	t.Helper()
	prog := mk(iters)
	avg := testing.AllocsPerRun(3, func() {
		if _, e, err := core.RunWith(core.DefaultOptions(), prog); e != nil || err != nil {
			t.Fatalf("run failed: %v %v", e, err)
		}
	})
	return avg / float64(iters)
}

// TestStepAllocCeiling bounds allocations for the BenchmarkStep
// workload (a pure Return chain): currently 2 allocs per iteration —
// the >> node and ReplicateM_'s own closure for the next iteration;
// return () is shared and pooled bind frames contribute none.
func TestStepAllocCeiling(t *testing.T) {
	const iters = 20000
	perOp := runAllocsPerOp(t, iters, func(n int) core.IO[core.Unit] {
		return core.ReplicateM_(n, core.Return(core.UnitValue))
	})
	if perOp > 3 {
		t.Fatalf("Step workload allocates %.2f/op, ceiling 3", perOp)
	}
}

// TestMVarPingPongAllocCeiling bounds allocations for the
// BenchmarkMVarPingPong workload (a two-thread handoff cycle):
// currently 7 allocs per round trip.
func TestMVarPingPongAllocCeiling(t *testing.T) {
	const iters = 10000
	perOp := runAllocsPerOp(t, iters, func(n int) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[int](), func(ping core.MVar[int]) core.IO[core.Unit] {
			return core.Bind(core.NewEmptyMVar[int](), func(pong core.MVar[int]) core.IO[core.Unit] {
				echo := core.ReplicateM_(n, core.Bind(core.Take(ping), func(v int) core.IO[core.Unit] {
					return core.Put(pong, v)
				}))
				drive := core.ReplicateM_(n, core.Then(core.Put(ping, 1), core.Void(core.Take(pong))))
				return core.Then(core.Void(core.Fork(echo)), drive)
			})
		})
	})
	if perOp > 9 {
		t.Fatalf("MVar ping-pong workload allocates %.2f/op, ceiling 9", perOp)
	}
}

// TestHotLoopStepAllocCeiling bounds the parallel engine's hot loop:
// workers spinning on a cyclic Forever node under the fuel limit, the
// same workload as the H1 empty-loop row. The workload itself
// allocates nothing, so per-step allocations measure the scheduler
// loop — the atomic stop-flag check, lock-free mailbox probe, batched
// clock/stats machinery — which must stay allocation-free: the fixed
// setup cost (engine, shards) amortized over the run is all
// the budget there is.
func TestHotLoopStepAllocCeiling(t *testing.T) {
	const steps = 40000
	const shards = 2
	var total uint64
	avg := testing.AllocsPerRun(3, func() {
		opts := core.ParallelOptions(shards)
		opts.TimeSlice = 50
		opts.MaxSteps = steps
		sys := core.NewSystem(opts)
		spin := core.Forever(core.Return(core.UnitValue))
		prog := core.Bind(core.NewEmptyMVar[core.Unit](), func(never core.MVar[core.Unit]) core.IO[core.Unit] {
			setup := core.Return(core.UnitValue)
			for w := 0; w < shards; w++ {
				setup = core.Then(setup, core.Void(core.ForkOn(w, spin, "")))
			}
			return core.Then(setup, core.Void(core.Take(never)))
		})
		_, _, err := core.RunSystem(sys, prog)
		if !errors.Is(err, sched.ErrFuelExhausted) {
			t.Fatalf("run ended unexpectedly: %v", err)
		}
		total += sys.Stats().Steps
	})
	perStep := avg / (float64(total) / 4) // AllocsPerRun runs f 3+1 times
	if perStep > 0.05 {
		t.Fatalf("parallel hot loop allocates %.4f/step, ceiling 0.05", perStep)
	}
}

// TestNewRTBytes bounds what an engine costs before it runs anything:
// NewRT plus RunMain(Return(())) at one and four shards. NewRT sizes
// no per-shard storage up front — mailboxes, run queues and timer
// heaps grow on first use — so short-lived runtimes (one per test, per
// request in the examples) stay cheap.
func TestNewRTBytes(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		ceiling int64
	}{{1, 16 << 10}, {4, 40 << 10}} {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := sched.NewRT(sched.Options{Shards: tc.shards})
				if _, err := rt.RunMain(sched.Return(sched.UnitValue)); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := r.AllocedBytesPerOp(); got > tc.ceiling {
			t.Errorf("shards=%d: NewRT+RunMain allocates %d B/op, ceiling %d", tc.shards, got, tc.ceiling)
		}
		t.Logf("shards=%d: %d B/op, %d allocs/op, %v", tc.shards, r.AllocedBytesPerOp(), r.AllocsPerOp(), time.Duration(r.NsPerOp()))
	}
}
