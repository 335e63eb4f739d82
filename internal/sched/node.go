package sched

import (
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// Node is the untyped internal representation of an IO action. The
// typed public API in internal/core wraps Nodes with a phantom type
// parameter; the scheduler interprets them one Node per step.
//
// The Node grammar mirrors the monadic values of Figure 1 of the paper:
// return, >>=, >>, throw, catch, block, unblock are structural;
// everything that touches the world (MVars, forkIO, throwTo, sleep,
// putChar, getChar, ...) is a primNode whose step function runs inside
// the scheduler loop.
//
// Building a node allocates at most the node itself; a constant one,
// such as return () or a primNode (one pointer: its step func), nothing.
type Node interface{ nodeKind() string }

// Kont is the continuation of a >>=. A func type satisfies it, and
// Handler, without a wrapper closure: kfun and hfun here, core's typed
// adapters there.
type Kont interface{ Apply(v any) Node }

// Handler is the handler of a catch.
type Handler interface{ Handle(e exc.Exception) Node }

type kfun func(any) Node

func (f kfun) Apply(v any) Node { return f(v) }

type hfun func(exc.Exception) Node

func (f hfun) Handle(e exc.Exception) Node { return f(e) }

// Unit is the value carried by actions of type IO (); the runtime uses
// a single shared value so tests can compare against it.
type Unit struct{}

// UnitValue is the canonical Unit value.
var UnitValue = Unit{}

type retNode struct{ v any }

func (retNode) nodeKind() string { return "return" }

// unitRet is return (): every action and primitive step that yields
// Unit shares it instead of boxing a fresh retNode.
var unitRet Node = retNode{Unit{}}

type bindNode struct {
	m Node
	k Kont
}

func (bindNode) nodeKind() string { return ">>=" }

// thenNode is m >> n: a bind whose continuation ignores m's result, so
// its bind frame carries n itself rather than a closure returning it.
type thenNode struct{ m, n Node }

func (thenNode) nodeKind() string { return ">>" }

type throwNode struct{ e exc.Exception }

func (throwNode) nodeKind() string { return "throw" }

type catchNode struct {
	m Node
	h Handler
	// skipAlerts implements the §9 two-datatype design: when set, the
	// handler does not intercept alert exceptions, which continue to
	// propagate.
	skipAlerts bool
}

func (catchNode) nodeKind() string { return "catch" }

// maskNode implements block/unblock (§5.2) plus the MaskUninterruptible
// extension. to is the mask state the body runs under.
type maskNode struct {
	m  Node
	to MaskState
}

func (maskNode) nodeKind() string { return "mask" }

// delayNode defers construction of an action until it is stepped,
// allowing recursive definitions (f = Delay(func() Node { ... f ... }))
// without infinite construction.
type delayNode struct{ f func() Node }

func (delayNode) nodeKind() string { return "delay" }

// DelayOf is Delay for typed callers: a func returning a T with a Node
// method (core's IO[A]) is itself a delay node, with no wrapper closure.
type DelayOf[T interface{ Node() Node }] func() T

func (DelayOf[T]) nodeKind() string { return "delay" }

func (f DelayOf[T]) force() Node { return f().Node() }

// primNode is a scheduler primitive. step runs in the scheduler loop
// with the running thread; it returns the continuation Node, or parks
// the thread itself and reports parked=true (in which case next is
// ignored).
type primNode struct {
	step func(rt *RT, t *Thread) (next Node, parked bool)
}

func (primNode) nodeKind() string { return "prim" }

// ---------------------------------------------------------------------
// Constructors (the untyped core calculus)
// ---------------------------------------------------------------------

// Return is the monadic unit: an action that immediately yields v.
func Return(v any) Node {
	if _, ok := v.(Unit); ok {
		return unitRet
	}
	return retNode{v}
}

// ReturnUnit is an action yielding the Unit value.
func ReturnUnit() Node { return unitRet }

// Bind sequences m before k, passing m's result to k (the >>= of §3).
func Bind(m Node, k func(any) Node) Node { return bindNode{m, kfun(k)} }

// BindK is Bind with the continuation as a Kont, for typed callers
// whose func types implement it.
func BindK(m Node, k Kont) Node { return bindNode{m, k} }

// Then sequences m before n, discarding m's result (Haskell's >>).
func Then(m Node, n Node) Node { return thenNode{m, n} }

// Throw raises the synchronous exception e (§4).
func Throw(e exc.Exception) Node { return throwNode{e} }

// Catch runs m; if m raises an exception (synchronously or
// asynchronously), h runs with it (§4). Entering the handler restores
// the mask state the thread had when Catch began (§8, catch frames).
func Catch(m Node, h func(exc.Exception) Node) Node { return catchNode{m: m, h: hfun(h)} }

// CatchK is Catch with the handler as a Handler. With skipAlerts it is
// restricted to non-alert exceptions, the two-datatype design sketched
// in §9: alert exceptions (ThreadKilled, Timeout, ...) pass through the
// handler untouched.
func CatchK(m Node, h Handler, skipAlerts bool) Node { return catchNode{m, h, skipAlerts} }

// Block executes m with asynchronous-exception delivery blocked
// (§5.2). Nesting does not count: two nested Blocks behave as one.
func Block(m Node) Node { return maskNode{m, Masked} }

// Unblock executes m with asynchronous-exception delivery unblocked,
// regardless of how many Blocks surround it (§5.2).
func Unblock(m Node) Node { return maskNode{m, Unmasked} }

// BlockUninterruptible is an extension beyond the paper (GHC's later
// uninterruptibleMask): within m, even interruptible operations do not
// receive asynchronous exceptions. It exists for ablation benchmarks
// and for the few cleanup actions that must not be interrupted.
func BlockUninterruptible(m Node) Node { return maskNode{m, MaskedUninterruptible} }

// MaskTo executes m under exactly the given mask state.
func MaskTo(m Node, to MaskState) Node { return maskNode{m, to} }

// Delay defers construction of an action until it runs; the standard
// way to express recursion in the Node calculus.
func Delay(f func() Node) Node { return delayNode{f} }

// Lift embeds an effectful Go function as a single atomic step — the
// analogue of one pure reduction in the paper's inner semantics.
// Asynchronous exceptions are delivered only between steps, never
// inside f.
func Lift(f func() any) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return Return(f()), false
	}}
}

// LiftErr embeds a Go function that may fail; a non-nil exception is
// raised synchronously.
func LiftErr(f func() (any, exc.Exception)) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		v, e := f()
		if e != nil {
			return throwNode{e}, false
		}
		return Return(v), false
	}}
}

// GetMask returns the thread's current mask state (an introspection
// helper used by combinators and tests; GHC's getMaskingState).
func GetMask() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{t.mask}, false
	}}
}

// Fork creates a new thread running m and returns its ThreadID (§4).
// Following the revised (Fork) rule of Figure 5, the child inherits the
// parent's current mask state — the property the paper's either
// combinator (§7.2) relies on to install handlers race-free.
func Fork(m Node) Node { return ForkNamed(m, "") }

// ForkNamed is Fork with a debug name attached to the child thread.
func ForkNamed(m Node, name string) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		child := rt.spawn(m, name, t.mask, t.id)
		return retNode{child.id}, false
	}}
}

// ForkOn is ForkNamed pinned to an execution shard (modulo the shard
// count): the child is created already owned by that shard and enqueued
// there via a mailbox message; a pinned thread is not work for a
// sibling, which never steals it. Benchmarks and placement-sensitive
// servers use it to spread threads deterministically instead of
// waiting for work stealing; with one shard it is ForkNamed.
func ForkOn(shard int, m Node, name string) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		child := rt.spawnOn(shard, m, name, t.mask, t.id)
		return retNode{child.id}, false
	}}
}

// MyThreadID returns the calling thread's ThreadID (§4).
func MyThreadID() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{t.id}, false
	}}
}

// Yield cedes the remainder of the thread's time slice.
func Yield() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		t.sliceLeft = 0
		return unitRet, false
	}}
}

// Sleep suspends the thread for at least d (§4; the paper's sleep takes
// microseconds, here a time.Duration). Sleeping threads are stuck and
// therefore interruptible in any context (Figure 5, rules Stuck Sleep
// and Interrupt). Sleep with d <= 0 returns immediately and is not an
// interruption point.
func Sleep(d time.Duration) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		if d <= 0 {
			return unitRet, false
		}
		if n, interrupted := t.raisePendingForPark(); interrupted {
			return n, false
		}
		rt.parkSleep(t, d)
		return nil, true
	}}
}

// ThrowTo raises exception e in thread tid (§5). In the default
// asynchronous design the call returns immediately and the exception is
// "in flight" (Figure 5, rule ThrowTo); with Options.SyncThrowTo the
// caller waits until the exception has been delivered, and the wait is
// itself interruptible (§9).
func ThrowTo(tid ThreadID, e exc.Exception) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return rt.throwTo(t, tid, e)
	}}
}

// PutChar writes a character to the runtime console (§3).
func PutChar(ch rune) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		rt.console.putChar(ch)
		return unitRet, false
	}}
}

// PutStr writes a string to the runtime console as a single step; a
// convenience that keeps example output atomic.
func PutStr(s string) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		for _, ch := range s {
			rt.console.putChar(ch)
		}
		return unitRet, false
	}}
}

// GetChar reads a character from the runtime console, parking until
// input is available (§3). A parked reader is stuck and interruptible
// (Figure 5, rules Stuck GetChar and Interrupt).
func GetChar() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return rt.getCharOrPark(t)
	}}
}

// NewEmptyMVar creates a fresh empty MVar (§4).
func NewEmptyMVar() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{rt.newMVar(false, nil)}, false
	}}
}

// NewMVar creates a fresh MVar holding v.
func NewMVar(v any) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{rt.newMVar(true, v)}, false
	}}
}

// TakeMVar removes and returns the contents of mv, parking while mv is
// empty (§4). It is an interruptible operation: inside Block it can
// still receive asynchronous exceptions, but only until the value is
// acquired (§5.3).
func TakeMVar(mv *MVar) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return rt.takeMVar(t, mv, noDeadline)
	}}
}

// TakeMVarFor is TakeMVar with a deadline on the wait itself: it returns
// the taken value, or Expired{} when d passed with mv still empty.
// Exactly one happens: a put that hands its value over cancels the
// deadline, and a put after expiry leaves its value in mv. With d <= 0
// it never parks — the non-waiting take — and so is not an
// interruption point (§5.3).
func TakeMVarFor(mv *MVar, d time.Duration) Node {
	if d < 0 {
		d = 0
	}
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return rt.takeMVar(t, mv, d)
	}}
}

// PutMVar fills mv with v, parking while mv is full (§4, with the
// footnote-3 semantics: putMVar on a full MVar waits rather than
// erroring). Putting into an empty MVar never parks and therefore is
// not an interruption point (§5.3) — the property the safe-locking
// pattern's exception handler relies on.
func PutMVar(mv *MVar, v any) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return rt.putMVar(t, mv, v)
	}}
}

// TryPutMVar is a non-parking PutMVar: it returns true when it filled
// mv (or handed the value to a waiting taker). Never an interruption
// point.
func TryPutMVar(mv *MVar, v any) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{rt.tryPutMVar(mv, v)}, false
	}}
}

// TryResult is the result of TryAwaitPromise.
type TryResult struct {
	// Value is the promise's value when OK.
	Value any
	// OK reports whether the promise was resolved.
	OK bool
}

// Steps returns the total number of scheduler steps executed so far; a
// Lift-able introspection hook used by fault-injection tests.
func Steps() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		rt.publishStats()
		return retNode{rt.Stats().Steps}, false
	}}
}

// FrameDepth returns the calling thread's current continuation-stack
// depth; used by the §8.1 constant-stack tests and benchmarks.
func FrameDepth() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{len(t.stack)}, false
	}}
}

// Now returns the runtime clock in nanoseconds. Under the virtual
// clock this is deterministic, which is what lets supervisors keep
// restart-intensity windows and backoff schedules reproducible.
func Now() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{rt.syncClock()}, false
	}}
}

// LiveThreads returns the number of live (not yet finished) threads,
// including the caller; the thread-leak assertion used by supervision
// and chaos tests.
func LiveThreads() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{int(rt.eng.live.Load())}, false
	}}
}

// GetStats returns a copy of the scheduler counters, so servers can
// surface runtime observability (e.g. httpd's /stats) from inside IO.
func GetStats() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		rt.publishStats()
		return retNode{rt.Stats()}, false
	}}
}

// GetShardStats returns per-shard copies of the scheduler counters,
// one entry per shard, so servers can surface per-shard observability (e.g.
// httpd's /stats) from inside IO.
func GetShardStats() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		rt.publishStats()
		return retNode{rt.ShardStats()}, false
	}}
}

// NoteRestartNamed bumps the SupervisorRestarts counter; called by
// internal/supervise each time a child is restarted so soak runs are
// diagnosable from scheduler stats alone. It records the restarted
// child's name and, when non-zero, the span of the delivered exception
// that killed the child into the obs event stream (KindRestart) — the
// link that lets a trace walk from a throwTo to the restart that
// answered it.
func NoteRestartNamed(child string, span uint64) Node {
	return note(obs.KindRestart, child, 0, span, func(s *Stats, _ uint64) { s.SupervisorRestarts++ })
}

// NoteShed bumps the Shed counter (admission refused) and records a
// KindShed obs event.
func NoteShed() Node {
	return note(obs.KindShed, "", 0, 0, func(s *Stats, _ uint64) { s.Shed++ })
}

// NoteRetry bumps the Retries counter (an attempt re-run) and records
// a KindRetry obs event.
func NoteRetry() Node {
	return note(obs.KindRetry, "", 0, 0, func(s *Stats, _ uint64) { s.Retries++ })
}

// NoteBreakerTransition records a circuit-breaker state change as a
// KindBreaker obs event; from/to use the resilience package's mode
// codes (0 closed, 1 open, 2 half-open). Transitions into open also
// bump the BreakerOpen counter (a breaker tripped).
func NoteBreakerTransition(name string, from, to int) Node {
	var bump func(*Stats, uint64)
	if to == 1 {
		bump = func(s *Stats, _ uint64) { s.BreakerOpen++ }
	}
	return note(obs.KindBreaker, name, obs.PackTransition(from, to), 0, bump)
}

// NoteDeadlineExpired bumps the DeadlineExpired counter and records a
// KindDeadline obs event.
func NoteDeadlineExpired() Node {
	return note(obs.KindDeadline, "", 0, 0, func(s *Stats, _ uint64) { s.DeadlineExpired++ })
}

// CurrentSpan returns the obs span id of the most recently delivered
// asynchronous exception in the calling thread (uint64; 0 when none
// has been delivered, the last one was already caught, or no Observer
// is configured). Handlers use it to tag their cleanup work with the
// span of the exception that triggered it.
func CurrentSpan() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{t.excSpan}, false
	}}
}

// LastCaughtSpan returns the obs span id of the most recently caught
// exception in the calling thread (uint64; 0 when it was synchronous
// or no Observer is configured). Unlike CurrentSpan — which the catch
// unwind consumes before any handler runs — this survives the handler,
// so code that inspects a Try outcome (internal/supervise capturing a
// child's death) can still link its follow-up work to the exception's
// span.
func LastCaughtSpan() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{t.lastSpan}, false
	}}
}

// NoteRemoteThrowTo records an exception leaving this node for a peer
// (internal/cluster's ThrowTo, sender side): a KindRemoteThrowTo event
// whose Span is a freshly allocated wire span and whose Label is the
// destination node id. It returns the wire span (uint64; 0 with no
// Observer) for the caller to carry in the frame, where the receiving
// node's injection records it as Arg — joining the two nodes' traces.
func NoteRemoteThrowTo(peer string, e exc.Exception) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		if rt.olog == nil {
			return retNode{uint64(0)}, false
		}
		span := rt.opts.Observer.NextSpan()
		rt.olog.Record(obs.Event{
			TS: rt.nowNS(), Span: span, Thread: int64(t.id),
			Exc: e, Label: peer, Kind: obs.KindRemoteThrowTo,
		})
		return retNode{span}, false
	}}
}

// NoteActorSend records count messages entering an actor mailbox
// (internal/actor, sender side): bumps the ActorSends counter and
// records a KindActorSend event labelled with the mailbox name. It
// returns a freshly allocated span (uint64; 0 with no Observer) that
// the mailbox stores on the message, so the eventual deliver and
// handle events join into one send → deliver → handle chain — the
// same discipline the throwTo → deliver → catch spans follow.
func NoteActorSend(mailbox string, count uint64) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		rt.stats.ActorSends += count
		if rt.olog == nil {
			return retNode{uint64(0)}, false
		}
		span := rt.opts.Observer.NextSpan()
		rt.olog.Record(obs.Event{
			TS: rt.nowNS(), Span: span, Thread: int64(t.id), Arg: count,
			Label: mailbox, Kind: obs.KindActorSend,
		})
		return retNode{span}, false
	}}
}

// NoteActorDeliver records count messages leaving an actor mailbox at
// its receive point: bumps ActorDeliveries and records a
// KindActorDeliver event carrying the send span of the first message
// delivered.
func NoteActorDeliver(mailbox string, count uint64, span uint64) Node {
	return note(obs.KindActorDeliver, mailbox, count, span, func(s *Stats, n uint64) { s.ActorDeliveries += n })
}

// NoteActorHandle records an actor handler completing over count
// delivered messages: bumps ActorHandled and records a
// KindActorHandle event with the same send span, closing the chain.
func NoteActorHandle(mailbox string, count uint64, span uint64) Node {
	return note(obs.KindActorHandle, mailbox, count, span, func(s *Stats, n uint64) { s.ActorHandled += n })
}

// note is the shape of the counting Note primitives: bump a Stats
// counter (given arg; nil bumps nothing) and record a kind event from
// the calling thread. span links the event into an exception's trace
// (restart: the span that killed the child) and is 0 for the kinds
// that have no such link.
func note(kind obs.Kind, label string, arg, span uint64, bump func(*Stats, uint64)) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		if bump != nil {
			bump(&rt.stats, arg)
		}
		if rt.olog != nil {
			rt.olog.Record(obs.Event{
				TS: rt.nowNS(), Span: span, Thread: int64(t.id), Arg: arg,
				Label: label, Kind: kind,
			})
		}
		return unitRet, false
	}}
}

// MailboxDepths returns the instantaneous mailbox backlog of every
// shard — queued-but-unapplied cross-shard messages — as a live load
// signal (unlike Stats.MailboxDepth, a high-water mark) that admission
// control can use as a load-shedding watermark: the mailbox itself has
// no bound. The read is one atomic load per shard (the mailN pending
// counter), taking no locks.
func MailboxDepths() Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		out := make([]int, len(rt.eng.shards))
		for i, sh := range rt.eng.shards {
			out[i] = int(sh.mailN.Load())
		}
		return retNode{out}, false
	}}
}
