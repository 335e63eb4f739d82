package conc

import (
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
)

// Async is a supervised fork: a handle on a thread whose outcome
// (result or exception) is captured in an MVar instead of being
// discarded by rule (Throw GC). It is the speculative-computation
// pattern of §2 packaged as a reusable abstraction.
type Async[A any] struct {
	tid    core.ThreadID
	result core.MVar[core.Attempt[A]]
}

// ThreadID returns the handle's thread.
func (a Async[A]) ThreadID() core.ThreadID { return a.tid }

// Spawn starts m in a new thread and returns its handle. The fork
// happens inside Block so the outcome-capturing Catch is installed
// before any exception can arrive (the child inherits the masked state,
// like the children in the paper's either).
func Spawn[A any](m core.IO[A]) core.IO[Async[A]] {
	return core.Bind(core.NewEmptyMVar[core.Attempt[A]](), func(res core.MVar[core.Attempt[A]]) core.IO[Async[A]] {
		body := core.Bind(core.Try(core.Unblock(m)), func(r core.Attempt[A]) core.IO[core.Unit] {
			return core.Put(res, r)
		})
		return core.Block(core.Bind(core.ForkNamed(body, "async"), func(tid core.ThreadID) core.IO[Async[A]] {
			return core.Return(Async[A]{tid: tid, result: res})
		}))
	})
}

// Wait blocks until the thread finishes and returns its result,
// rethrowing the thread's exception if it failed.
func (a Async[A]) Wait() core.IO[A] {
	return core.Bind(a.WaitCatch(), func(r core.Attempt[A]) core.IO[A] {
		if r.Failed() {
			return core.Throw[A](r.Exc)
		}
		return core.Return(r.Value)
	})
}

// WaitCatch blocks until the thread finishes and returns its reified
// outcome. Multiple waiters are allowed: the result is read
// non-destructively (take-then-put under Block).
func (a Async[A]) WaitCatch() core.IO[core.Attempt[A]] {
	return core.Block(core.Bind(core.Take(a.result), func(r core.Attempt[A]) core.IO[core.Attempt[A]] {
		return core.Then(core.Put(a.result, r), core.Return(r))
	}))
}

// Poll returns the outcome if the thread has finished, Nothing
// otherwise.
func (a Async[A]) Poll() core.IO[core.Maybe[core.Attempt[A]]] {
	return core.Block(core.Bind(core.TryTake(a.result), func(r core.Maybe[core.Attempt[A]]) core.IO[core.Maybe[core.Attempt[A]]] {
		if !r.IsJust {
			return core.Return(core.Nothing[core.Attempt[A]]())
		}
		return core.Then(core.Put(a.result, r.Value), core.Return(core.Just(r.Value)))
	}))
}

// Cancel sends ThreadKilled to the thread and waits for it to finish.
func (a Async[A]) Cancel() core.IO[core.Unit] {
	return core.Then(core.ThrowTo(a.tid, exc.ThreadKilled{}), core.Void(a.WaitCatch()))
}

// CancelWith sends e instead of ThreadKilled.
func (a Async[A]) CancelWith(e core.Exception) core.IO[core.Unit] {
	return core.Then(core.ThrowTo(a.tid, e), core.Void(a.WaitCatch()))
}

// Link connects the async to the calling thread in the style of
// Erlang's process links (§10: "processes can be linked together, such
// that each process will receive an asynchronous exception if the
// other dies"): if the task fails with anything but ThreadKilled, the
// exception is re-thrown asynchronously at the calling thread. Unlike
// Erlang's stateful mechanism, the receiver controls delivery with the
// scoped Block/Unblock — the §10 criticism of Erlang's design is
// exactly that it cannot.
func (a Async[A]) Link() core.IO[core.Unit] {
	return core.Bind(core.MyThreadID(), func(me core.ThreadID) core.IO[core.Unit] {
		watcher := core.Bind(a.WaitCatch(), func(r core.Attempt[A]) core.IO[core.Unit] {
			if r.Failed() && !r.Exc.Eq(exc.ThreadKilled{}) {
				return core.ThrowTo(me, r.Exc)
			}
			return core.Return(core.UnitValue)
		})
		return core.Void(core.ForkNamed(watcher, "link"))
	})
}

// SpawnLinked is Spawn followed by Link: the §10 Erlang-link idiom as
// one operation.
func SpawnLinked[A any](m core.IO[A]) core.IO[Async[A]] {
	return core.Bind(Spawn(m), func(a Async[A]) core.IO[Async[A]] {
		return core.Then(a.Link(), core.Return(a))
	})
}

// WithAsync runs inner with a handle on m, cancelling the thread when
// inner leaves (normally or exceptionally) — structured concurrency in
// the small.
func WithAsync[A, B any](m core.IO[A], inner func(Async[A]) core.IO[B]) core.IO[B] {
	return core.Bracket(Spawn(m), inner,
		func(a Async[A]) core.IO[core.Unit] { return a.Cancel() })
}
