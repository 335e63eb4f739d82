package core

import "asyncexc/internal/sched"

// MVar is a typed wrapper around the runtime's MVar (§4): a box that is
// either empty or holds a value of type A. Take waits while it is
// empty; Put waits while it is full.
type MVar[A any] struct{ mv *sched.MVar }

// Raw exposes the untyped MVar; used by substrates, not applications.
func (m MVar[A]) Raw() *sched.MVar { return m.mv }

// MVarFromRaw wraps an untyped MVar; the caller asserts the element
// type.
func MVarFromRaw[A any](mv *sched.MVar) MVar[A] { return MVar[A]{mv} }

// NewEmptyMVar creates a fresh empty MVar (§4's newEmptyMVar).
func NewEmptyMVar[A any]() IO[MVar[A]] {
	return FromNode[MVar[A]](sched.Bind(sched.NewEmptyMVar(), func(v any) sched.Node {
		return sched.Return(MVar[A]{v.(*sched.MVar)})
	}))
}

// NewMVar creates a fresh MVar holding v.
func NewMVar[A any](v A) IO[MVar[A]] {
	return FromNode[MVar[A]](sched.Bind(sched.NewMVar(v), func(raw any) sched.Node {
		return sched.Return(MVar[A]{raw.(*sched.MVar)})
	}))
}

// Take removes and returns the contents of m, waiting while m is
// empty. Take is an interruptible operation: even inside Block it can
// receive asynchronous exceptions, but only up to the moment it
// acquires the value (§5.3).
func Take[A any](m MVar[A]) IO[A] {
	return FromNode[A](sched.TakeMVar(m.mv))
}

// Put fills m with v, waiting while m is full (§4 footnote 3). Putting
// into an MVar that is known empty never waits and hence cannot be
// interrupted (§5.3) — the property the safe-locking handler relies on.
func Put[A any](m MVar[A], v A) IO[Unit] {
	return IO[Unit]{sched.PutMVar(m.mv, v)}
}

// TryTake is a non-waiting Take: Just the value when m was full.
func TryTake[A any](m MVar[A]) IO[Maybe[A]] {
	return FromNode[Maybe[A]](sched.Bind(sched.TakeMVarFor(m.mv, 0), func(v any) sched.Node {
		if _, expired := v.(sched.Expired); expired {
			return sched.Return(Nothing[A]())
		}
		return sched.Return(Just(v.(A)))
	}))
}

// TryPut is a non-waiting Put: true when the value was deposited or
// handed directly to a waiting taker.
func TryPut[A any](m MVar[A], v A) IO[bool] {
	return FromNode[bool](sched.TryPutMVar(m.mv, v))
}

// Read takes the value and puts it straight back, returning it. As in
// the paper-era Concurrent Haskell library this is a composite of Take
// and Put, not an atomic primitive; callers needing atomicity should
// hold the MVar as a lock.
func Read[A any](m MVar[A]) IO[A] {
	return Bind(Take(m), func(v A) IO[A] {
		return Then(Put(m, v), Return(v))
	})
}

// Swap replaces the contents of m, returning the old value. Composite,
// like Read.
func Swap[A any](m MVar[A], v A) IO[A] {
	return Bind(Take(m), func(old A) IO[A] {
		return Then(Put(m, v), Return(old))
	})
}

// WithMVar performs the safe-locking pattern of §5.2–5.3 around a read:
// take the value under Block, run f on it unblocked, and guarantee the
// value is put back whether f returns or raises. The window in which an
// asynchronous exception could lose the lock is closed: Take is
// interruptible only until it acquires the value, and the handler's Put
// (into an MVar known to be empty) cannot be interrupted.
func WithMVar[A, B any](m MVar[A], f func(A) IO[B]) IO[B] {
	return Block(Bind(Take(m), func(a A) IO[B] {
		return Bind(
			Catch(Unblock(f(a)), func(e Exception) IO[B] {
				return Then(Put(m, a), Throw[B](e))
			}),
			func(b B) IO[B] { return Then(Put(m, a), Return(b)) },
		)
	}))
}

// ModifyMVar is the §5.1 state-update pattern made safe (§5.2's final
// version): the old state is restored if the computation of the new
// state raises, and the new state is stored otherwise.
//
//	block (do { a <- takeMVar m;
//	            b <- catch (unblock (compute a))
//	                       (\e -> do { putMVar m a; throw e });
//	            putMVar m b })
func ModifyMVar[A any](m MVar[A], compute func(A) IO[A]) IO[Unit] {
	return Block(Bind(Take(m), func(a A) IO[Unit] {
		return Bind(
			Catch(Unblock(compute(a)), func(e Exception) IO[A] {
				return Then(Put(m, a), Throw[A](e))
			}),
			func(b A) IO[Unit] { return Put(m, b) },
		)
	}))
}

// ModifyMVarValue is ModifyMVar returning an auxiliary result from the
// update function.
func ModifyMVarValue[A, B any](m MVar[A], compute func(A) IO[Pair[A, B]]) IO[B] {
	return Block(Bind(Take(m), func(a A) IO[B] {
		return Bind(
			Catch(Unblock(compute(a)), func(e Exception) IO[Pair[A, B]] {
				return Then(Put(m, a), Throw[Pair[A, B]](e))
			}),
			func(p Pair[A, B]) IO[B] { return Then(Put(m, p.Fst), Return(p.Snd)) },
		)
	}))
}

// ModifyMVarValueMasked is ModifyMVarValue with the update function run
// masked rather than unblocked: interruptible operations inside compute
// can still be interrupted while they actually wait (§5.3), and then
// the old value is restored, but no exception can arrive at an
// arbitrary point of compute. Used by structures (such as conc.Chan)
// whose update must be atomic apart from its own waiting.
func ModifyMVarValueMasked[A, B any](m MVar[A], compute func(A) IO[Pair[A, B]]) IO[B] {
	return Block(Bind(Take(m), func(a A) IO[B] {
		return Bind(
			Catch(compute(a), func(e Exception) IO[Pair[A, B]] {
				return Then(Put(m, a), Throw[Pair[A, B]](e))
			}),
			func(p Pair[A, B]) IO[B] { return Then(Put(m, p.Fst), Return(p.Snd)) },
		)
	}))
}

// ModifyMVarUninterruptible is ModifyMVar run entirely under
// BlockUninterruptible: neither the take, the compute, nor the put is
// an interruption point. Plain ModifyMVar unblocks its compute, so even
// wrapping it in BlockUninterruptible leaves an unmasked window where a
// second asynchronous exception aborts the update after the take and
// the restore path silently discards the intended change. Cleanup-path
// bookkeeping (semaphore gauges, breaker probe slots) cannot afford
// that; use this and keep compute non-blocking so the uninterruptible
// window stays tiny. The old value is still restored if compute raises
// synchronously.
func ModifyMVarUninterruptible[A any](m MVar[A], compute func(A) IO[A]) IO[Unit] {
	return BlockUninterruptible(Bind(Take(m), func(a A) IO[Unit] {
		return Bind(
			Catch(compute(a), func(e Exception) IO[A] {
				return Then(Put(m, a), Throw[A](e))
			}),
			func(b A) IO[Unit] { return Put(m, b) },
		)
	}))
}

// UnsafeModifyMVar is the §5.1 *broken* version kept for the
// experiments: the exception handler is installed only after the Take,
// so an asynchronous exception arriving in between loses the lock. Used
// by examples/safelocking and the E1 experiments; never use it in real
// code.
func UnsafeModifyMVar[A any](m MVar[A], compute func(A) IO[A]) IO[Unit] {
	return Bind(Take(m), func(a A) IO[Unit] {
		return Bind(
			Catch(compute(a), func(e Exception) IO[A] {
				return Then(Put(m, a), Throw[A](e))
			}),
			func(b A) IO[Unit] { return Put(m, b) },
		)
	})
}
