// Package core is the public API of the asyncexc library: Concurrent
// Haskell's IO monad with synchronous and asynchronous exceptions, as
// designed in "Asynchronous Exceptions in Haskell" (PLDI 2001).
//
// An IO[A] is a first-class description of a computation that, when
// performed by a runtime (Run/RunWith/System), may fork threads,
// communicate through MVars, throw and catch exceptions, and — the
// paper's contribution — asynchronously raise exceptions in other
// threads with ThrowTo, under the control of the scoped Block/Unblock
// combinators and the interruptible-operations rule.
//
// The correspondence with the paper's primitives:
//
//	forkIO      -> Fork           myThreadId -> MyThreadID
//	throw       -> Throw          catch      -> Catch
//	throwTo     -> ThrowTo        sleep      -> Sleep
//	block       -> Block          unblock    -> Unblock
//	newEmptyMVar-> NewEmptyMVar   takeMVar   -> Take
//	putMVar     -> Put            getChar    -> GetChar
//	putChar     -> PutChar
//
// and §7's derived combinators: Finally, Later, Bracket, EitherIO,
// BothIO, Timeout, SafePoint.
//
// Beyond the paper's surface: ParallelOptions/RunParallel run programs
// on the work-stealing engine (docs/PARALLEL.md); Options.Observer
// attaches the tracing layer and CurrentSpan exposes the span of a
// propagating asynchronous exception to handler code
// (docs/OBSERVABILITY.md).
package core

import (
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/sched"
)

// IO is an action that, when performed, may do some input/output (and
// concurrency, and exception handling) before delivering a value of
// type A (§3).
type IO[A any] struct{ node sched.Node }

// Unit is the result type of actions performed purely for effect
// (Haskell's ()).
type Unit = sched.Unit

// UnitValue is the canonical Unit value.
var UnitValue = sched.UnitValue

// ThreadID identifies a runtime thread (§4). ThreadIDs support
// equality.
type ThreadID = sched.ThreadID

// MaskState is the asynchronous-exception mask state of a thread
// (§5.2: the paper's blocked/unblocked states, plus the documented
// uninterruptible extension).
type MaskState = sched.MaskState

// Re-exported mask states.
const (
	Unmasked              = sched.Unmasked
	Masked                = sched.Masked
	MaskedUninterruptible = sched.MaskedUninterruptible
)

// Exception is the type thrown and caught by the runtime (§4).
type Exception = exc.Exception

// Node exposes the untyped representation; used by the compiler and
// conformance substrates, not by applications.
func (m IO[A]) Node() sched.Node { return m.node }

// FromNode wraps an untyped action; the caller asserts that the node
// yields an A. Used by the compiler substrate.
func FromNode[A any](n sched.Node) IO[A] { return IO[A]{n} }

// ---------------------------------------------------------------------
// Monadic structure
// ---------------------------------------------------------------------

// Return is the monadic unit: an action that immediately yields v.
func Return[A any](v A) IO[A] { return IO[A]{sched.Return(v)} }

// Pure is a synonym for Return.
func Pure[A any](v A) IO[A] { return Return(v) }

// Bind sequences m before k, passing m's result to k (§3's >>=).
func Bind[A, B any](m IO[A], k func(A) IO[B]) IO[B] {
	return IO[B]{sched.BindK(m.node, kont[A, B](k))}
}

// Then sequences m before n, discarding m's result (Haskell's >>).
func Then[A, B any](m IO[A], n IO[B]) IO[B] {
	return IO[B]{sched.Then(m.node, n.node)}
}

// Map applies a pure function to the result of m.
func Map[A, B any](m IO[A], f func(A) B) IO[B] {
	return IO[B]{sched.BindK(m.node, mapK[A, B](f))}
}

// kont, mapK and handler adapt typed funcs to sched's Kont and Handler.
// A func value converts to an interface without allocating, so Bind,
// Map and Catch allocate their node and no wrapper closure.
type kont[A, B any] func(A) IO[B]

func (k kont[A, B]) Apply(v any) sched.Node { return k(v.(A)).node }

type mapK[A, B any] func(A) B

func (f mapK[A, B]) Apply(v any) sched.Node { return sched.Return(f(v.(A))) }

type handler[A any] func(Exception) IO[A]

func (h handler[A]) Handle(e exc.Exception) sched.Node { return h(e).node }

// Void discards m's result.
func Void[A any](m IO[A]) IO[Unit] {
	return IO[Unit]{sched.Then(m.node, sched.ReturnUnit())}
}

// Seq runs the actions left to right, discarding results.
func Seq(ms ...IO[Unit]) IO[Unit] {
	r := Return(UnitValue)
	for i := len(ms) - 1; i >= 0; i-- {
		r = Then(ms[i], r)
	}
	return r
}

// Delay defers construction of an action until it runs; the standard
// way to write recursive actions without infinite construction.
func Delay[A any](f func() IO[A]) IO[A] {
	return IO[A]{sched.DelayOf[IO[A]](f)}
}

// Lift embeds an effectful Go function as one atomic runtime step: the
// analogue of a single pure reduction in the paper's inner semantics.
// Asynchronous exceptions are never delivered inside f.
func Lift[A any](f func() A) IO[A] {
	return IO[A]{sched.Lift(func() any { return f() })}
}

// LiftErr embeds a Go function that may fail; a non-nil exception is
// raised synchronously, as by Throw.
func LiftErr[A any](f func() (A, Exception)) IO[A] {
	return IO[A]{sched.LiftErr(func() (any, exc.Exception) { return f() })}
}

// ---------------------------------------------------------------------
// Exceptions (§4, §5)
// ---------------------------------------------------------------------

// Throw raises the synchronous exception e.
func Throw[A any](e Exception) IO[A] { return IO[A]{sched.Throw(e)} }

// Catch runs m; if m raises an exception — synchronously, or
// asynchronously via ThrowTo — the handler h runs with it. Entering
// the handler restores the mask state the thread had when Catch began
// (§8), which is what makes the safe-locking pattern of §5.2 sound.
func Catch[A any](m IO[A], h func(Exception) IO[A]) IO[A] {
	return IO[A]{sched.CatchK(m.node, handler[A](h), false)}
}

// CatchNonAlert is Catch under the §9 two-datatype design: alert
// exceptions (ThreadKilled, Timeout, ...) are not intercepted, so a
// universal handler inside a timed computation cannot break Timeout.
func CatchNonAlert[A any](m IO[A], h func(Exception) IO[A]) IO[A] {
	return IO[A]{sched.CatchK(m.node, handler[A](h), true)}
}

// Handle is Catch with the arguments swapped.
func Handle[A any](h func(Exception) IO[A], m IO[A]) IO[A] { return Catch(m, h) }

// Try runs m and reifies its outcome: (value, nil) on success,
// (zero, e) if it raised e.
func Try[A any](m IO[A]) IO[Attempt[A]] {
	return Catch(
		Map(m, func(a A) Attempt[A] { return Attempt[A]{Value: a} }),
		func(e Exception) IO[Attempt[A]] { return Return(Attempt[A]{Exc: e}) },
	)
}

// Attempt is the reified outcome of a computation run under Try.
type Attempt[A any] struct {
	// Value is the result when Exc is nil.
	Value A
	// Exc is the raised exception, or nil on success.
	Exc Exception
}

// Failed reports whether the attempt raised an exception.
func (r Attempt[A]) Failed() bool { return r.Exc != nil }

// ThrowTo raises exception e in the thread tid "as soon as possible"
// (§5). With the default asynchronous design the call returns
// immediately; the runtime option SyncThrowTo selects the §9
// synchronous variant. ThrowTo to a finished thread trivially
// succeeds.
func ThrowTo(tid ThreadID, e Exception) IO[Unit] {
	return IO[Unit]{sched.ThrowTo(tid, e)}
}

// KillThread sends ThreadKilled to tid, the idiom used by the paper's
// either combinator (§7.2).
func KillThread(tid ThreadID) IO[Unit] {
	return ThrowTo(tid, exc.ThreadKilled{})
}

// ---------------------------------------------------------------------
// Masking (§5.2)
// ---------------------------------------------------------------------

// Block executes m with asynchronous exceptions blocked. Scopes do not
// count: nested Blocks behave as a single Block, and exiting the scope
// (normally or by an exception) restores the previous state (§5.2).
// Interruptible operations inside m that actually wait may still
// receive asynchronous exceptions (§5.3).
func Block[A any](m IO[A]) IO[A] { return IO[A]{sched.Block(m.node)} }

// Unblock executes m with asynchronous exceptions unblocked, no matter
// how many Blocks surround it (§5.2).
func Unblock[A any](m IO[A]) IO[A] { return IO[A]{sched.Unblock(m.node)} }

// BlockUninterruptible is the documented extension beyond the paper
// (GHC's later uninterruptibleMask): inside m, even waiting
// interruptible operations do not receive asynchronous exceptions.
func BlockUninterruptible[A any](m IO[A]) IO[A] {
	return IO[A]{sched.BlockUninterruptible(m.node)}
}

// GetMask returns the calling thread's current mask state.
func GetMask() IO[MaskState] { return FromNode[MaskState](sched.GetMask()) }

// SafePoint gives any pending asynchronous exception a chance to be
// delivered inside a long Block-protected computation: it unblocks for
// an instant (§7.4: safePoint = unblock (return ())).
func SafePoint() IO[Unit] { return Unblock(Return(UnitValue)) }

// ---------------------------------------------------------------------
// Concurrency (§4)
// ---------------------------------------------------------------------

// Fork creates a new thread running m and returns its ThreadID. The
// child inherits the parent's mask state (the revised Fork rule of
// Figure 5). The child's result, or uncaught exception, is discarded
// (rules Return GC / Throw GC); use conc.Async for supervised forks.
func Fork[A any](m IO[A]) IO[ThreadID] { return IO[ThreadID]{sched.Fork(m.node)} }

// ForkNamed is Fork with a debug name for traces.
func ForkNamed[A any](m IO[A], name string) IO[ThreadID] {
	return IO[ThreadID]{sched.ForkNamed(m.node, name)}
}

// ForkOn is ForkNamed pinned to an execution shard (modulo the shard
// count): the child is created already owned by that shard and reaches
// its run queue as a cross-shard message, so placement is deterministic
// instead of left to work stealing; a pinned thread is not work for a
// sibling shard. In serial mode it is exactly ForkNamed. Benchmarks and placement-sensitive servers use it to
// guarantee cross-shard traffic or spread load without a warm-up.
func ForkOn[A any](shard int, m IO[A], name string) IO[ThreadID] {
	return IO[ThreadID]{sched.ForkOn(shard, m.node, name)}
}

// MyThreadID returns the calling thread's ThreadID (§4).
func MyThreadID() IO[ThreadID] { return IO[ThreadID]{sched.MyThreadID()} }

// Yield cedes the remainder of the calling thread's time slice.
func Yield() IO[Unit] { return IO[Unit]{sched.Yield()} }

// Sleep suspends the calling thread for at least d (§4). A sleeping
// thread is stuck and therefore interruptible in any mask context.
func Sleep(d time.Duration) IO[Unit] { return IO[Unit]{sched.Sleep(d)} }

// ---------------------------------------------------------------------
// Runtime introspection (extensions; deterministic under VirtualClock)
// ---------------------------------------------------------------------

// Now returns the runtime clock in nanoseconds since the run began.
// Under the default virtual clock it is deterministic, which is what
// supervision's restart-intensity windows and backoff schedules rely
// on for reproducible behaviour.
func Now() IO[int64] { return FromNode[int64](sched.Now()) }

// LiveThreads returns the number of live threads, including the
// caller — the leak assertion used by supervision and chaos tests.
func LiveThreads() IO[int] { return FromNode[int](sched.LiveThreads()) }

// SchedStats returns a snapshot of the scheduler counters from inside
// IO, so long-running systems (e.g. the httpd /stats route) can expose
// runtime observability without leaving the monad.
func SchedStats() IO[sched.Stats] { return FromNode[sched.Stats](sched.GetStats()) }

// ShardSchedStats returns per-shard scheduler counters from inside IO —
// one entry per execution shard on the parallel engine, a single entry
// in serial mode.
func ShardSchedStats() IO[[]sched.Stats] {
	return FromNode[[]sched.Stats](sched.GetShardStats())
}

// MailboxDepths returns each shard's instantaneous mailbox backlog (a
// live gauge, unlike Stats.MailboxDepth which is a high-water mark);
// admission control uses it as a load-shedding watermark. Serial mode
// reports a single zero entry.
func MailboxDepths() IO[[]int] {
	return FromNode[[]int](sched.MailboxDepths())
}

// CurrentSpan returns the observability span id of the asynchronous
// exception currently propagating through the caller — non-zero only
// between delivery and the enclosing Catch frame — so cleanup handlers
// can correlate their work with the throwTo span that triggered it.
// Zero when no exception is in flight or no Observer is configured.
func CurrentSpan() IO[uint64] { return FromNode[uint64](sched.CurrentSpan()) }

// ---------------------------------------------------------------------
// Console (§3)
// ---------------------------------------------------------------------

// PutChar writes a character to the runtime console.
func PutChar(ch rune) IO[Unit] { return IO[Unit]{sched.PutChar(ch)} }

// PutStr writes a string to the runtime console atomically.
func PutStr(s string) IO[Unit] { return IO[Unit]{sched.PutStr(s)} }

// PutStrLn writes a line to the runtime console atomically.
func PutStrLn(s string) IO[Unit] { return IO[Unit]{sched.PutStr(s + "\n")} }

// GetChar reads a character from the runtime console, waiting (stuck,
// interruptible) until input is available.
func GetChar() IO[rune] { return IO[rune]{sched.GetChar()} }
