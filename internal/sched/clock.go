package sched

import (
	"container/heap"
	"sync/atomic"
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

// timerEntry is one pending Sleep wake-up. Entries are lazily deleted:
// interrupting a sleeper clears its live flag, and a stale entry is
// skipped when it surfaces. The flag is a shared atomic because the
// sleeper's owner clears it while another shard's heap may hold the
// entry.
type timerEntry struct {
	at   int64 // absolute runtime nanoseconds
	seq  uint64
	t    *Thread
	live *atomic.Bool
}

type timerHeap []timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)      { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() any        { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h timerHeap) peek() timerEntry { return h[0] }

// parkSleep parks t until d from now. The entry lands in this shard's
// heap; its arm sequence number is engine-wide, so sleepers with equal
// deadlines wake in arm order whichever heaps hold them.
func (rt *RT) parkSleep(t *Thread, d time.Duration) {
	seq := rt.eng.nextTimerSeq.Add(1)
	live := &atomic.Bool{}
	live.Store(true)
	rt.park(t, parkInfo{kind: parkSleep, timerLive: live})
	en := timerEntry{at: rt.nowNS() + int64(d), seq: seq, t: t, live: live}
	rt.smu.Lock()
	heap.Push(&rt.timers, en)
	rt.timerN.Add(1)
	rt.smu.Unlock()
	rt.stats.Sleeps++
}
