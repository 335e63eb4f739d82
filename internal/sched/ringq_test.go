package sched

import (
	"math/rand"
	"testing"
)

func ringThreads(n int) []*Thread {
	ts := make([]*Thread, n)
	for i := range ts {
		ts[i] = &Thread{id: ThreadID(i + 1)}
	}
	return ts
}

// TestRingQWraparound drives the ring through many push/pop cycles that
// force head to wrap past the buffer end and the buffer to grow while
// wrapped, checking FIFO order against a reference slice throughout.
func TestRingQWraparound(t *testing.T) {
	var q ringQ
	ts := ringThreads(1000)
	next := 0
	var ref []*Thread
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 20000; step++ {
		if next < len(ts) && (len(ref) == 0 || rng.Intn(3) > 0) {
			q.pushBack(ts[next])
			ref = append(ref, ts[next])
			next++
		} else if len(ref) > 0 {
			if rng.Intn(4) == 0 {
				got, want := q.popBack(), ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if got != want {
					t.Fatalf("step %d: popBack = %v, want %v", step, got.id, want.id)
				}
			} else {
				got, want := q.popFront(), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("step %d: popFront = %v, want %v", step, got.id, want.id)
				}
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		if next == len(ts) && len(ref) == 0 {
			next = 0 // refill and keep cycling so head keeps wrapping
		}
	}
	if q.popFront() != nil || q.popBack() != nil {
		t.Fatal("pop on empty queue should return nil")
	}
}

// TestRingQGrowWrapped grows the buffer while head is mid-buffer so the
// elements straddle the wrap point, then checks relinearization.
func TestRingQGrowWrapped(t *testing.T) {
	var q ringQ
	ts := ringThreads(64)
	// Fill to the initial capacity (16), drain half so head moves, then
	// push past capacity to force a wrapped grow.
	for i := 0; i < 16; i++ {
		q.pushBack(ts[i])
	}
	for i := 0; i < 10; i++ {
		q.popFront()
	}
	for i := 16; i < 40; i++ {
		q.pushBack(ts[i])
	}
	for i := 10; i < 40; i++ {
		if got := q.popFront(); got != ts[i] {
			t.Fatalf("popFront = %v, want %v", got.id, ts[i].id)
		}
	}
}

// TestRingQAtSwap checks the indexed access used by the fair-shuffle
// random scheduler: swapping an arbitrary queued thread to the front
// must pop exactly that thread and leave the rest in order.
func TestRingQAtSwap(t *testing.T) {
	var q ringQ
	ts := ringThreads(8)
	// Wrap the head first.
	for i := 0; i < 6; i++ {
		q.pushBack(ts[i])
	}
	for i := 0; i < 6; i++ {
		q.popFront()
	}
	for _, th := range ts {
		q.pushBack(th)
	}
	for i := 0; i < 8; i++ {
		if q.at(i) != ts[i] {
			t.Fatalf("at(%d) = %v, want %v", i, q.at(i).id, ts[i].id)
		}
	}
	q.swap(0, 5)
	if got := q.popFront(); got != ts[5] {
		t.Fatalf("after swap popFront = %v, want %v", got.id, ts[5].id)
	}
	want := []*Thread{ts[1], ts[2], ts[3], ts[4], ts[0], ts[6], ts[7]}
	for i, w := range want {
		if got := q.popFront(); got != w {
			t.Fatalf("pop %d = %v, want %v", i, got.id, w.id)
		}
	}
	q.clear()
	if q.Len() != 0 {
		t.Fatal("clear left elements")
	}
}

// TestRingQFairShuffle runs the serial scheduler with RandomSched over
// threads that each record their first-run order, checking that across
// seeds every thread gets to go first at least once — i.e. the
// ring-backed fair shuffle still reaches the whole queue, not just the
// head.
func TestRingQFairShuffle(t *testing.T) {
	const workers = 8
	first := make(map[int]bool)
	for seed := int64(0); seed < 64; seed++ {
		// A slice long enough to fork all workers before main parks on
		// Sleep, so the first pop chooses uniformly among all of them.
		rt := NewRT(Options{TimeSlice: 50, RandomSched: true, Seed: seed, DetectDeadlock: true})
		order := make([]int, 0, workers)
		main := Bind(NewMVar(0), func(a any) Node {
			mv := a.(*MVar)
			body := func(i int) Node {
				return primNode{func(rt *RT, t *Thread) (Node, bool) {
					order = append(order, i)
					return unitRet, false
				}}
			}
			var spawnAll func(i int) Node
			spawnAll = func(i int) Node {
				if i == workers {
					return Sleep(1)
				}
				return Bind(Fork(body(i)), func(any) Node { return spawnAll(i + 1) })
			}
			_ = mv
			return spawnAll(0)
		})
		if _, err := rt.RunMain(main); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(order) != workers {
			t.Fatalf("seed %d: ran %d workers, want %d", seed, len(order), workers)
		}
		first[order[0]] = true
	}
	for i := 0; i < workers; i++ {
		if !first[i] {
			t.Errorf("worker %d never scheduled first across 64 seeds", i)
		}
	}
}
