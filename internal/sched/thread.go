package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"asyncexc/internal/exc"
)

// ThreadID identifies a thread; ThreadIDs support equality (§4) and are
// never reused within one runtime.
type ThreadID int64

// String renders a ThreadID for traces.
func (t ThreadID) String() string { return fmt.Sprintf("thread#%d", int64(t)) }

// MaskState is the per-thread asynchronous-exception state of §5.2/§8.1.
// The paper has two states (blocked/unblocked); MaskedUninterruptible
// is the extension documented in DESIGN.md §6.
type MaskState uint8

const (
	// Unmasked: asynchronous exceptions are delivered at every step
	// boundary (the paper's "unblocked" state).
	Unmasked MaskState = iota
	// Masked: delivery is postponed, except at interruptible
	// operations that actually wait (the paper's "blocked" state).
	Masked
	// MaskedUninterruptible: delivery is postponed even at
	// interruptible operations (extension).
	MaskedUninterruptible
)

// String renders a MaskState.
func (m MaskState) String() string {
	switch m {
	case Unmasked:
		return "unmasked"
	case Masked:
		return "masked"
	case MaskedUninterruptible:
		return "maskedUninterruptible"
	default:
		return fmt.Sprintf("MaskState(%d)", uint8(m))
	}
}

// Interruptible reports whether a stuck thread in this mask state may
// receive asynchronous exceptions (rule Interrupt applies to the
// paper's both states; only the extension state refuses).
func (m MaskState) Interruptible() bool { return m != MaskedUninterruptible }

type threadStatus uint8

const (
	statusRunnable threadStatus = iota
	statusParked
	statusDone
)

type parkKind uint8

const (
	parkNone parkKind = iota
	parkTakeMVar
	parkPutMVar
	parkSleep
	parkGetChar
	parkThrowTo // synchronous throwTo awaiting its receipt (§9)
	parkPromise // awaiting a first-class promise
)

func (k parkKind) String() string {
	switch k {
	case parkNone:
		return "none"
	case parkTakeMVar:
		return "takeMVar"
	case parkPutMVar:
		return "putMVar"
	case parkSleep:
		return "sleep"
	case parkGetChar:
		return "getChar"
	case parkThrowTo:
		return "throwTo"
	case parkPromise:
		return "promise"
	default:
		return fmt.Sprintf("parkKind(%d)", uint8(k))
	}
}

// pendingExc is one entry in a thread's pending-exception queue (§8.1),
// the thread's one interrupt queue: e is an asynchronous exception
// (lethal) or a *signalEntry (a non-lethal signal, see signal.go).
// receipt is non-nil for the synchronous throwTo design of §9: the
// promise the thrower awaits. Delivery resolves it and the thrower's
// interrupt cancels it; whichever settles it first decides whether the
// exception is raised (see claim).
type pendingExc struct {
	e       exc.Exception
	receipt *Promise
	// span and enqNS carry the obs tracing span id and enqueue
	// timestamp from the throwTo site to the delivery event; both zero
	// when no Observer is configured.
	span  uint64
	enqNS int64
}

// lethal reports whether p is an exception rather than a signal.
func (p pendingExc) lethal() bool {
	_, sig := p.e.(*signalEntry)
	return !sig
}

// parkInfo records why a thread is parked and how to extract it.
type parkInfo struct {
	kind parkKind
	// q is the wait queue a queued park (takeMVar, putMVar, getChar,
	// promise) sits in, and mu the lock of the object that owns it; an
	// interrupt detaches the thread by removing it from q under mu.
	q  *waitQ
	mu *sync.Mutex
	// id is the MVar or promise id carried by the park and unpark
	// events (0 for other parks).
	id uint64
	// putVal is the value a parked putter is waiting to deposit.
	putVal any
	// timer is the deadline of a Sleep or a TakeMVarFor, cancelled when
	// the park ends any other way.
	timer *timer
	// cancel, if set, is the promise owning q, which an interrupt
	// cancels as it detaches the thread (SpeculateNode and LaunchAwait
	// teardown, a §9 thrower's withdrawal).
	cancel *Promise
}

// Thread is the per-thread data block of §8.1: the current action, the
// continuation stack, the asynchronous-exception mask state, and the
// queue of pending asynchronous exceptions.
type Thread struct {
	id   ThreadID
	name string
	rt   *RT

	cur   Node
	stack []frame
	mask  MaskState

	// pending queues undelivered interrupts, oldest first: asynchronous
	// exceptions and non-lethal signals (see signal.go).
	pending []pendingExc

	// sigHandlers maps signal names to this thread's registered
	// handlers; nil means no handler was ever installed. Owner-only
	// state, like cur and mask.
	sigHandlers map[string]func(Signal) Node

	status threadStatus
	park   parkInfo

	// owner is the shard currently owning this thread. It changes only
	// under the previous owner's shard lock, when a thief steals the
	// thread from that shard's run queue.
	owner atomic.Pointer[RT]

	// pinned marks a ForkOn thread: work stealing skips it, so it stays
	// on its placement shard. Affinity only — quiescence-time adoption
	// (virtual-clock timer firing, deadlock injection) still moves it.
	// Written before the thread is published, never changed after.
	pinned bool

	// sliceLeft counts remaining steps in the current time slice.
	sliceLeft int

	// doneVal/doneExc record the completion outcome.
	doneVal any
	doneExc exc.Exception

	// settle, when non-nil, marks this thread as a promise producer
	// forked by AsyncNode/SpeculateNode: its completion outcome is
	// routed into the promise by finish — a normal return resolves it,
	// an unwound exception rejects it — instead of counting as an
	// uncaught exception. The promise is the thread's top-level
	// handler, installed by the runtime rather than a catch frame.
	settle *Promise

	// stackHighWater tracks the maximum frame depth (stats, §8.1
	// constant-stack evidence).
	stackHighWater int

	// overflowed is set by push when the stack bound is exceeded; the
	// next step converts it into a StackOverflow raise.
	overflowed bool

	// excSpan is the obs span id of the most recently delivered
	// asynchronous exception, consumed by the catch-frame unwind or
	// the uncaught finish (0 when none, or with no Observer).
	excSpan uint64

	// lastSpan is the span of the most recently caught exception: the
	// value excSpan held when the last catch frame was entered (0 when
	// that exception was synchronous). Unlike excSpan it survives the
	// handler, so outcome-capturing wrappers (supervise's Try around a
	// child body) can link their exit notice to the kill that caused
	// it via LastCaughtSpan.
	lastSpan uint64
}

// ID returns the thread's identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the debug name given at fork time.
func (t *Thread) Name() string { return t.name }

// Mask returns the thread's current mask state.
func (t *Thread) Mask() MaskState { return t.mask }

// Done reports whether the thread has finished.
func (t *Thread) Done() bool { return t.status == statusDone }

// PendingCount returns the number of queued exceptions and signals.
func (t *Thread) PendingCount() int { return len(t.pending) }

// StackHighWater returns the maximum continuation-stack depth observed.
func (t *Thread) StackHighWater() int { return t.stackHighWater }

func (t *Thread) push(f frame) {
	t.stack = append(t.stack, f)
	if len(t.stack) > t.stackHighWater {
		t.stackHighWater = len(t.stack)
	}
	if max := t.rt.opts.MaxStack; max > 0 && len(t.stack) > max {
		t.overflowed = true
	}
}

func (t *Thread) pop() frame {
	f := t.stack[len(t.stack)-1]
	t.stack[len(t.stack)-1] = nil
	t.stack = t.stack[:len(t.stack)-1]
	return f
}

func (t *Thread) top() frame {
	if len(t.stack) == 0 {
		return nil
	}
	return t.stack[len(t.stack)-1]
}

// dequeuePendingAt removes and returns the i-th pending entry.
func (t *Thread) dequeuePendingAt(i int) pendingExc {
	p := t.pending[i]
	copy(t.pending[i:], t.pending[i+1:])
	t.pending[len(t.pending)-1] = pendingExc{}
	t.pending = t.pending[:len(t.pending)-1]
	return p
}

// raisePendingForPark implements the interruptible-operations rule of
// §5.3 for a primitive that is about to wait: if the thread has a
// pending asynchronous exception and is not in the uninterruptible
// extension state, the exception is raised now instead of parking.
// It returns (throwNode, true) when an exception was raised.
func (t *Thread) raisePendingForPark() (Node, bool) {
	if len(t.pending) == 0 || !t.mask.Interruptible() {
		return nil, false
	}
	p, ok := t.rt.takePending(t)
	if !ok {
		return nil, false
	}
	t.rt.noteDelivered(t, p, true)
	return throwNode{p.e}, true
}
