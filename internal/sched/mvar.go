package sched

import (
	"fmt"
	"sync"
	"time"
)

// MVar is the synchronization primitive of Concurrent Haskell (§4): a
// box that is either empty or holds a value. takeMVar waits while the
// box is empty; putMVar waits while it is full (the footnote-3
// semantics of this paper, not the 1996 paper's error).
//
// Waiters are queued FIFO and woken one at a time with direct handoff
// (a putMVar hands its value straight to the longest-waiting taker),
// which realizes one of the interleavings the paper's nondeterministic
// semantics allows while giving the fairness practical programs expect.
//
// Every state transition happens under mu, and takers/putters are
// waitQs: popping a waiter COMMITS its wakeup (see waitQ).
type MVar struct {
	id   uint64
	name string

	mu sync.Mutex

	full bool
	val  any

	// takers wait for the MVar to become full; putters wait for it to
	// become empty. Each parked putter carries its value in
	// park.putVal.
	takers  waitQ
	putters waitQ
}

// ID returns the MVar's unique identifier within its runtime.
func (m *MVar) ID() uint64 { return m.id }

// Name returns the MVar's debug name, if any.
func (m *MVar) Name() string { return m.name }

// Full reports whether the MVar currently holds a value. Like the
// paper's semantics, this is only meaningful inside the scheduler;
// user code should use TakeMVarFor(mv, 0) for a race-free probe.
func (m *MVar) Full() bool { return m.full }

// String renders the MVar for traces.
func (m *MVar) String() string {
	if m.name != "" {
		return fmt.Sprintf("mvar:%s", m.name)
	}
	return fmt.Sprintf("mvar#%d", m.id)
}

func (rt *RT) newMVar(full bool, v any) *MVar {
	mv := &MVar{id: rt.eng.nextMVarID.Add(1), full: full, val: v}
	rt.stats.MVarsCreated++
	return mv
}

// takeFullLocked services a take against a full MVar; caller holds
// mu. It returns the taken value and the putter whose
// deposit was committed by the pop (to be woken after mu is released).
func (mv *MVar) takeFullLocked() (v any, woke *Thread) {
	v = mv.val
	if woke = mv.putters.pop(); woke != nil {
		// A parked putter deposits immediately; the MVar stays full.
		mv.val = woke.park.putVal
	} else {
		mv.full = false
		mv.val = nil
	}
	return v, woke
}

// noDeadline is takeMVar's d for an untimed TakeMVar.
const noDeadline time.Duration = -1

// Expired is the value TakeMVarFor returns when its deadline passed
// with the MVar still empty.
type Expired struct{}

// takeMVar implements rule (TakeMVar) plus (Stuck TakeMVar) and the
// §5.3 interruptibility rule. Called from the scheduler with the
// running thread. d bounds the wait: noDeadline waits for ever, 0 does
// not wait at all (the try case, which is therefore no interruption
// point), and d > 0 parks with a deadline on this shard's heap, after
// which the thread resumes with Expired.
func (rt *RT) takeMVar(t *Thread, mv *MVar, d time.Duration) (Node, bool) {
	mv.mu.Lock()
	if !mv.full {
		mv.mu.Unlock()
		if d == 0 {
			return retNode{Expired{}}, false
		}
		// Empty: the thread is about to become stuck, so takeMVar is an
		// interruptible operation — pending exceptions are raised
		// "right up until the point when it acquires the MVar" (§5.3).
		// (The pending queue cannot change mid-step, so re-checking
		// after the unlock gap is unnecessary.)
		if n, interrupted := t.raisePendingForPark(); interrupted {
			return n, false
		}
		mv.mu.Lock()
	}
	if mv.full {
		// Full — possibly refilled in the unlock gap by another shard.
		v, woke := mv.takeFullLocked()
		mv.mu.Unlock()
		if woke != nil {
			rt.deliverUnpark(woke, UnitValue, nil)
		}
		rt.stats.MVarTakes++
		return retNode{v}, false
	}
	pk := parkInfo{kind: parkTakeMVar, q: &mv.takers, mu: &mv.mu, id: mv.id}
	if d > 0 {
		// Armed before the thread joins the queue, so a put that pops it
		// always finds the timer in the heap to cancel.
		pk.timer = rt.armTimer(t, d)
	}
	rt.park(t, pk)
	mv.mu.Unlock()
	rt.stats.MVarTakeParks++
	return nil, true
}

// putEmptyLocked services a put against a non-full MVar; caller holds
// mu. It returns the taker (if any) whose wakeup the
// pop committed; the taker receives v directly.
func (mv *MVar) putEmptyLocked(v any) (woke *Thread) {
	// Direct handoff to the longest-waiting taker, if any; the taker
	// has acquired the value and is past its interruptible window.
	if woke = mv.takers.pop(); woke == nil {
		mv.full = true
		mv.val = v
	} else if tm := woke.park.timer; tm != nil {
		// A timed taker's deadline leaves the heap with the commit; a
		// timer already popped finds the taker gone from the queue.
		cancelTimer(tm)
	}
	return woke
}

// putMVar implements rule (PutMVar) plus (Stuck PutMVar). Putting into
// an empty MVar never waits, so it is not an interruption point even
// when exceptions are pending (§5.3's "careful wording": an
// interruptible operation cannot be interrupted if the resource it is
// attempting to acquire is always available). The safe-locking
// exception handler's putMVar relies on exactly this.
func (rt *RT) putMVar(t *Thread, mv *MVar, v any) (Node, bool) {
	mv.mu.Lock()
	if mv.full {
		mv.mu.Unlock()
		// Full: about to become stuck; interruptible.
		if n, interrupted := t.raisePendingForPark(); interrupted {
			return n, false
		}
		mv.mu.Lock()
	}
	if !mv.full {
		// Empty — possibly emptied in the unlock gap by another shard.
		woke := mv.putEmptyLocked(v)
		mv.mu.Unlock()
		if woke != nil {
			rt.deliverUnpark(woke, v, nil)
		}
		rt.stats.MVarPuts++
		return unitRet, false
	}
	rt.park(t, parkInfo{kind: parkPutMVar, q: &mv.putters, mu: &mv.mu, id: mv.id, putVal: v})
	mv.mu.Unlock()
	rt.stats.MVarPutParks++
	return nil, true
}

// tryPutMVar is the non-parking variant: true when the value was
// deposited or handed to a waiting taker.
func (rt *RT) tryPutMVar(mv *MVar, v any) bool {
	mv.mu.Lock()
	if mv.full {
		mv.mu.Unlock()
		return false
	}
	woke := mv.putEmptyLocked(v)
	mv.mu.Unlock()
	if woke != nil {
		rt.deliverUnpark(woke, v, nil)
	}
	rt.stats.MVarPuts++
	return true
}

// waitQ is the one wait queue: a FIFO of parked threads, used for MVar
// takers and putters, console readers and promise awaiters. It is
// guarded by the lock of the object that owns it, and popping a thread
// COMMITS its wakeup: the popped thread is resumed by its owner
// (directly, or via a must-deliver msgUnpark) and nothing else may
// resume it. An interrupt racing with the wakeup must first remove the
// thread under the same lock (detachParked); if the removal fails the
// wakeup has committed and the exception goes to the pending queue
// instead — §5.3's interruptibility window closes "right up until the
// point when it acquires the MVar", and at that point it has.
type waitQ []*Thread

func (q *waitQ) push(t *Thread) { *q = append(*q, t) }

// pop removes and returns the longest-waiting thread, or nil.
func (q *waitQ) pop() *Thread {
	if len(*q) == 0 {
		return nil
	}
	t := (*q)[0]
	q.remove(t)
	return t
}

// remove takes t out of the queue, reporting whether it was there.
func (q *waitQ) remove(t *Thread) bool {
	s := *q
	for i, x := range s {
		if x == t {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			*q = s[:len(s)-1]
			return true
		}
	}
	return false
}
