package sched

import (
	"fmt"
	"testing"
	"time"

	"asyncexc/internal/exc"
)

// A cancelled timer leaves its heap at once: timed takes answered by a
// put and sleepers killed mid-sleep leave every heap, and every timerN,
// at zero, with the clock never having moved. On one shard that is 10⁵
// of each. On two, ForkOn alternates the putters and sleepers between
// the shards, so puts cancel deadlines in the other shard's heap.
func TestCancelledTimersLeaveTheHeap(t *testing.T) {
	for _, c := range []struct{ shards, n int }{{1, 100_000}, {2, 10_000}} {
		t.Run(fmt.Sprintf("shards=%d", c.shards), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Shards = c.shards
			rt := NewRT(opts)
			wrong := 0
			timedTake := func(mv *MVar, i int) Node {
				return Then(ForkOn(i, PutMVar(mv, i), "putter"), Bind(TakeMVarFor(mv, time.Hour), func(v any) Node {
					if v != i {
						wrong++
					}
					return ReturnUnit()
				}))
			}
			killedSleep := func(i int) Node {
				return Bind(ForkOn(i, Sleep(time.Hour), "sleeper"), func(tid any) Node {
					// The yield lets a sleeper on this shard park before it
					// is killed.
					return Then(Yield(), ThrowTo(tid.(ThreadID), exc.ThreadKilled{}))
				})
			}
			var loop func(i int, mv *MVar) Node
			loop = func(i int, mv *MVar) Node {
				if i == c.n {
					// Let the last kills land before the run ends.
					return Sleep(time.Millisecond)
				}
				return Then(timedTake(mv, i), Then(killedSleep(i), Delay(func() Node { return loop(i+1, mv) })))
			}
			if _, err := rt.RunMain(Bind(NewEmptyMVar(), func(mv any) Node { return loop(0, mv.(*MVar)) })); err != nil {
				t.Fatal(err)
			}
			st := rt.Stats()
			if wrong != 0 {
				t.Fatalf("%d timed takes did not get their put's value", wrong)
			}
			// Every sleeper, and main's last nap, parked on one shard.
			if c.shards == 1 && (st.MVarTakeParks != uint64(c.n) || st.Sleeps != uint64(c.n+1) || st.Interrupts != uint64(c.n)) {
				t.Fatalf("takeParks=%d sleeps=%d interrupts=%d, want %d, %d and %d", st.MVarTakeParks, st.Sleeps, st.Interrupts, c.n, c.n+1, c.n)
			}
			for _, s := range rt.eng.shards {
				if len(s.timers) != 0 || s.timerN.Load() != 0 {
					t.Fatalf("shard %d: %d timers in the heap, timerN %d, want 0", s.shardID, len(s.timers), s.timerN.Load())
				}
			}
			if rt.Now() != int64(time.Millisecond) {
				t.Fatalf("clock at %v, want 1ms: a cancelled timer fired", time.Duration(rt.Now()))
			}
		})
	}
}
