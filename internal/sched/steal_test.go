package sched

import (
	"fmt"
	"math/bits"
	"testing"
)

// pinnedWitness is a simulation source that records every scheduling
// event and, whenever the driver chooses among several shards, checks
// each candidate against the run queues themselves: a shard with no
// queued or kept thread and no mail is a candidate only to steal, so
// some sibling must queue an unpinned thread.
type pinnedWitness struct {
	DefaultSource
	e      *engine
	events []SimEvent
	idle   []string // turns offered to a shard with nothing it may run
}

func (w *pinnedWitness) Observe(ev SimEvent) { w.events = append(w.events, ev) }

func (w *pinnedWitness) PickShard(mask uint32) int {
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		s := w.e.shards[i]
		if s.kept != nil || s.runq.Len() > 0 || s.mailN.Load() > 0 {
			continue
		}
		stealable := false
		for _, v := range w.e.shards {
			for j := 0; v != s && j < v.runq.Len(); j++ {
				stealable = stealable || !v.runq.at(j).pinned
			}
		}
		if !stealable {
			w.idle = append(w.idle, fmt.Sprintf("shard %d offered a turn (candidates %b) while its sibling queues only pinned threads", i, mask))
		}
	}
	return -1
}

// TestPinnedThreadsAreNotWorkForASibling runs, at two shards under the
// simulation driver, a program whose runnable threads are all
// ForkOn-pinned to shard 0, many at a time, with short slices. Shard 1
// may take none of them, so it must never be offered a turn for them
// and must never attempt a steal that comes back empty.
func TestPinnedThreadsAreNotWorkForASibling(t *testing.T) {
	const workers, spins = 8, 40
	for _, seed := range []int64{1, 2, 3} {
		w := &pinnedWitness{}
		rt := NewRT(Options{Shards: 2, TimeSlice: 3, Seed: seed, DetectDeadlock: true, Sim: w})
		w.e = rt.eng
		main := Bind(NewEmptyMVar(), func(a any) Node {
			ch := a.(*MVar)
			return Bind(NewEmptyMVar(), func(b any) Node {
				done := b.(*MVar)
				var spin func(k int) Node
				spin = func(k int) Node {
					if k == 0 {
						return PutMVar(ch, UnitValue)
					}
					return Bind(Return(k), func(any) Node { return spin(k - 1) })
				}
				// setup forks the workers and collects one put from each;
				// it is pinned too, so only main is ever unpinned, and main
				// is parked until the very end.
				var collect func(k int) Node
				collect = func(k int) Node {
					if k == 0 {
						return PutMVar(done, "done")
					}
					return Then(TakeMVar(ch), collect(k-1))
				}
				var fork func(i int) Node
				fork = func(i int) Node {
					if i == workers {
						return collect(workers)
					}
					return Then(ForkOn(0, spin(spins), "worker"), fork(i+1))
				}
				return Then(ForkOn(0, fork(0), "setup"), TakeMVar(done))
			})
		})
		res, err := rt.RunMain(main)
		if err != nil || res.Value != "done" {
			t.Fatalf("seed %d: %+v, %v", seed, res, err)
		}
		for _, ev := range w.events {
			if ev.Kind == SimSteal && ev.B&(1<<48-1) == 0 {
				t.Fatalf("seed %d: failed steal by shard %d (candidates %b): a pinned thread counted as work", seed, ev.Shard, ev.A)
			}
		}
		if len(w.idle) > 0 {
			t.Fatalf("seed %d: %d idle turns, first: %s", seed, len(w.idle), w.idle[0])
		}
	}
}

// TestStealTakesUnpinnedBehindPinnedTail queues an unpinned thread
// ahead of two pinned ones on shard 0: shard 1's steal must take the
// unpinned thread and leave the pinned tail in order, and a second
// steal must find nothing to take.
func TestStealTakesUnpinnedBehindPinnedTail(t *testing.T) {
	rt := NewRT(Options{Shards: 2})
	v, thief := rt.eng.shards[0], rt.eng.shards[1]
	free := &Thread{id: 1, rt: v, status: statusRunnable}
	p1 := &Thread{id: 2, rt: v, status: statusRunnable, pinned: true}
	p2 := &Thread{id: 3, rt: v, status: statusRunnable, pinned: true}
	for _, th := range []*Thread{free, p1, p2} {
		th.owner.Store(v)
		v.enqueue(th)
	}
	if got := thief.steal(); got != free {
		t.Fatalf("steal took %v, want the unpinned thread", got)
	}
	if free.owner.Load() != thief || free.rt != thief {
		t.Fatal("the stolen thread's owner did not move to the thief")
	}
	if v.runq.Len() != 2 || v.runq.at(0) != p1 || v.runq.at(1) != p2 || v.qfree != 0 || v.queued.Load() != 2 {
		t.Fatalf("victim queue after the steal: len %d qfree %d queued %#x", v.runq.Len(), v.qfree, v.queued.Load())
	}
	if got := thief.steal(); got != nil {
		t.Fatalf("second steal took pinned thread %d", got.id)
	}
	if thief.hasWork() {
		t.Fatal("a sibling's pinned threads count as work for the thief")
	}
}
