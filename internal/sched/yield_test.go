package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"asyncexc/internal/exc"
)

// On a one-P process a busy worker yields the P every yieldEvery, so an
// I/O completion goroutine runs within one interval instead of waiting
// for the Go runtime to preempt the worker (~10 ms). One thread spins
// on Yield while main awaits, round after round, a door whose goroutine
// completes at once. The steps from each launch to its wakeup must stay
// under one interval's worth at 4 ns a step, several times the rate of
// the fastest step loop (~20 ns a step). Without the yield a round read
// 260–720 thousand steps on a 2-CPU VM: the completion waited for the
// preemption.
func TestBusyWorkerYieldsItsOnlyP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 5
	bound := uint64(yieldEvery / (4 * time.Nanosecond))
	opts := DefaultOptions()
	opts.Clock = RealClock
	var done atomic.Bool
	var spin func() Node
	spin = func() Node {
		if done.Load() {
			return ReturnUnit()
		}
		return Then(Yield(), Delay(spin))
	}
	door := LaunchAwait("door", func(complete func(any, exc.Exception)) func() {
		go complete(UnitValue, nil)
		return nil
	}, nil)
	var waits []uint64
	var round func() Node
	round = func() Node {
		if len(waits) == rounds {
			done.Store(true)
			return ReturnUnit()
		}
		return Bind(Steps(), func(before any) Node {
			return Then(door, Bind(Steps(), func(after any) Node {
				waits = append(waits, after.(uint64)-before.(uint64))
				return Delay(round)
			}))
		})
	}
	if _, err := NewRT(opts).RunMain(Then(Fork(Delay(spin)), Then(Yield(), Delay(round)))); err != nil {
		t.Fatal(err)
	}
	t.Logf("steps from launch to wakeup: %v (bound %d)", waits, bound)
	for i, w := range waits {
		if w > bound {
			t.Errorf("round %d: %d steps from launch to wakeup, want <= %d", i, w, bound)
		}
	}
}
