package core

import "asyncexc/internal/sched"

// This file is the typed surface of non-lethal signals
// (docs/PROMISES.md): SignalTo delivers a notification that runs the
// target's registered handler in the target's own context instead of
// unwinding its stack — the alert side of §9's exceptions-vs-alerts
// discussion, for the cases (reload configuration, drain connections,
// dump state) where killing the target is exactly wrong.
//
// Delivery is strictly weaker than ThrowTo: only at an unmasked redex
// of a running thread (no Interrupt rule — a parked thread keeps its
// signals queued), never while an exception is pending, and never
// after the stack unwinds. The handler runs under Block, so a second
// signal or an exception cannot tear it mid-flight, but operations
// inside it that wait remain interruptible (§9: handlers themselves
// interruptible).

// Signal is a non-lethal asynchronous notification; Name selects the
// target's handler and Payload carries optional data.
type Signal = sched.Signal

// SignalTo sends sig to tid. Like the asynchronous ThrowTo it never
// blocks, and a dead or unknown target is a trivial success (the
// signal is dropped, counted in Stats.SignalsDropped). A target with
// no handler registered for sig.Name drops it at the delivery point.
func SignalTo(tid ThreadID, sig Signal) IO[Unit] {
	return IO[Unit]{sched.SignalTo(tid, sig)}
}

// WithSignalHandler runs body with h registered as the calling
// thread's handler for signals named name, restoring the previous
// registration (or absence of one) when body finishes — normally or
// by an exception. Handlers are per-thread state and not inherited by
// forked children.
//
// The handler runs spliced in front of the interrupted continuation,
// under Block; when it returns, the original computation resumes
// untouched. A handler that throws unwinds the thread's real stack,
// exactly as if the interrupted operation had thrown.
func WithSignalHandler[A any](name string, h func(Signal) IO[Unit], body IO[A]) IO[A] {
	type handler = func(sched.Signal) sched.Node
	install := func(h handler) IO[handler] { return FromNode[handler](sched.InstallSignalHandler(name, h)) }
	return Bracket(install(func(s sched.Signal) sched.Node { return h(s).node }),
		func(handler) IO[A] { return body },
		install)
}
