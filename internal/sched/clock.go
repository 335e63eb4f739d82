package sched

import (
	"container/heap"
	"math"
	"time"
)

// ClockMode selects how the runtime advances time for Sleep and
// timeouts.
type ClockMode uint8

const (
	// VirtualClock advances time only when no thread is runnable, by
	// jumping straight to the earliest timer — rule (Sleep)'s
	// "deliberately underspecified" external clock, specialized to the
	// fastest legal clock. Deterministic and instantaneous; the
	// default for tests and benchmarks.
	VirtualClock ClockMode = iota
	// RealClock uses the wall clock; required when the program does
	// real I/O through the I/O manager.
	RealClock
)

// timer is the deadline of one parked thread: a Sleep, or a TakeMVarFor
// still waiting. It sits in the heap of rt, the shard that owned the
// thread when it parked, at index idx (-1 once it has left the heap).
// A parked thread changes owner only after its timer has left the heap
// (fireAllTimers), so a shard firing its own due timers owns their
// threads. A timed take arms and cancels its timer under the MVar's
// lock, so a shard lock nests inside an MVar lock, never the other way
// round. The arm sequence number is engine-wide, so timers with equal
// deadlines fire in arm order whichever heaps hold them.
type timer struct {
	at  int64 // absolute runtime nanoseconds
	seq uint64
	t   *Thread
	rt  *RT
	idx int
}

func (a *timer) before(b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerHeap is a shard's pending deadlines, indexed so that a cancelled
// timer leaves at once (cancelTimer) instead of lingering until due.
type timerHeap []*timer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	tm := x.(*timer)
	tm.idx = len(*h)
	*h = append(*h, tm)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	tm.idx = -1
	*h = old[:n-1]
	return tm
}

// armTimer puts a deadline d from now (a fresh reading, syncClock) for
// t into this shard's heap. The deadline saturates: a duration past the
// end of the clock waits forever rather than wrapping into the past.
func (rt *RT) armTimer(t *Thread, d time.Duration) *timer {
	at := rt.syncClock()
	if int64(d) > math.MaxInt64-at {
		at = math.MaxInt64
	} else {
		at += int64(d)
	}
	tm := &timer{at: at, seq: rt.eng.nextTimerSeq.Add(1), t: t, rt: rt}
	rt.smu.Lock()
	heap.Push(&rt.timers, tm)
	rt.timerN.Add(1)
	rt.smu.Unlock()
	return tm
}

// cancelTimer takes tm out of its heap, unless it has already left it.
func cancelTimer(tm *timer) {
	s := tm.rt
	s.smu.Lock()
	if tm.idx >= 0 {
		heap.Remove(&s.timers, tm.idx)
		s.timerN.Add(-1)
	}
	s.smu.Unlock()
}

// fireTimer resumes the thread whose deadline tm was, on the shard that
// owns it. A sleeper returns (). A timed taker expires only if the
// timer can still take it off the MVar's queue; when it cannot, a put
// has already committed its value to the taker, and the value wins.
func (rt *RT) fireTimer(tm *timer) {
	t, v := tm.t, any(UnitValue)
	if pk := t.park; pk.q != nil {
		pk.mu.Lock()
		ok := pk.q.remove(t)
		pk.mu.Unlock()
		if !ok {
			return
		}
		v = Expired{}
	}
	rt.unpark(t, v, nil)
}

// parkSleep parks t until d from now.
func (rt *RT) parkSleep(t *Thread, d time.Duration) {
	rt.park(t, parkInfo{kind: parkSleep, timer: rt.armTimer(t, d)})
	rt.stats.Sleeps++
}
