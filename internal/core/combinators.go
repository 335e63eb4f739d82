package core

import (
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/sched"
)

// This file implements §7 of the paper: "robust abstractions, layered
// on top of the primitives, that express common programming patterns."

// ---------------------------------------------------------------------
// §7.1 Bracketing abstractions
// ---------------------------------------------------------------------

// Finally embodies "do A, then whatever happens do B" (§7.1):
//
//	finally a b = block (do { r <- catch (unblock a)
//	                                     (\e -> do { b; throw e });
//	                          b; return r })
//
// The second argument runs inside Block so that, like a Unix signal
// handler, it cannot itself be interrupted by a second asynchronous
// exception before it completes.
func Finally[A, B any](a IO[A], b IO[B]) IO[A] {
	return Block(Bind(
		Catch(Unblock(a), func(e Exception) IO[A] {
			return Then(b, Throw[A](e))
		}),
		func(r A) IO[A] { return Then(b, Return(r)) },
	))
}

// Later is Finally with the arguments reversed (§7.1):
// later b a = finally a b.
func Later[A, B any](b IO[B], a IO[A]) IO[A] { return Finally(a, b) }

// OnException runs cleanup only if a raises (the asymmetric half of
// Finally); the exception is rethrown afterwards.
func OnException[A, B any](a IO[A], cleanup IO[B]) IO[A] {
	return Block(Catch(Unblock(a), func(e Exception) IO[A] {
		return Then(cleanup, Throw[A](e))
	}))
}

// Bracket expresses "acquire a resource, operate on it, free the
// resource" (§7.1). The resource is freed whether the operation
// succeeds or raises, and the acquisition is atomic: it either succeeds
// (the resource is owned and will be freed) or raises (it is not).
//
// Note the paper's argument order — bracket before thing after — which
// differs from modern GHC's bracket before after thing:
//
//	bracket (openFile "file.imp") (\h -> workOnFile h) (\h -> hClose h)
func Bracket[A, B, C any](before IO[A], thing func(A) IO[B], after func(A) IO[C]) IO[B] {
	return Block(Bind(before, func(a A) IO[B] {
		return Bind(
			Catch(Unblock(thing(a)), func(e Exception) IO[B] {
				return Then(after(a), Throw[B](e))
			}),
			func(b B) IO[B] { return Then(after(a), Return(b)) },
		)
	}))
}

// BracketOnError is Bracket whose release action runs only when the
// operation raises.
func BracketOnError[A, B, C any](before IO[A], thing func(A) IO[B], after func(A) IO[C]) IO[B] {
	return Block(Bind(before, func(a A) IO[B] {
		return Catch(Unblock(thing(a)), func(e Exception) IO[B] {
			return Then(after(a), Throw[B](e))
		})
	}))
}

// ---------------------------------------------------------------------
// §7.2 Symmetric process abstractions
// ---------------------------------------------------------------------

// eitherMsg is the EitherRet datatype of §7.2: data EitherRet a b =
// A a | B b | X Exception.
type eitherMsg[A, B any] struct {
	tag uint8 // 0 = A, 1 = B, 2 = X
	a   A
	b   B
	e   Exception
}

// EitherIO runs a and b concurrently and returns the result of the
// first to finish; the other thread is sent ThreadKilled (§7.2, the
// paper's `either`). Precisely:
//
//   - the result is Left r if a finishes first with r, Right r if b
//     finishes first with r;
//   - if either child raises an exception before a result arrives, that
//     exception is rethrown (after both children are killed);
//   - an asynchronous exception received by the caller is propagated to
//     both children, and the caller resumes waiting;
//   - the behaviour is undefined if a child throws to the caller.
//
// The implementation is the paper's, transcribed: the children are
// forked inside Block (they inherit the blocked state — the revised
// Fork rule — so their Catch installs race-free before Unblock exposes
// the user computation), and the waiting loop's Take is interruptible
// inside Block, which is what lets the caller both wait safely and
// still hear about exceptions aimed at it. The final ThrowTo calls are
// non-interruptible (asynchronous design), so both children are
// guaranteed to be killed before EitherIO returns (§7.2).
func EitherIO[A, B any](a IO[A], b IO[B]) IO[Either[A, B]] {
	type msg = eitherMsg[A, B]
	return Bind(NewEmptyMVar[msg](), func(m MVar[msg]) IO[Either[A, B]] {
		return Block(
			Bind(ForkNamed(childA(m, a), "either.a"), func(aid ThreadID) IO[Either[A, B]] {
				return Bind(ForkNamed(childB(m, b), "either.b"), func(bid ThreadID) IO[Either[A, B]] {
					var loop func() IO[msg]
					loop = func() IO[msg] {
						return Catch(Take(m), func(e Exception) IO[msg] {
							return Then(ThrowTo(aid, e),
								Then(ThrowTo(bid, e), Delay(loop)))
						})
					}
					return Bind(loop(), func(r msg) IO[Either[A, B]] {
						return Then(KillThread(aid), Then(KillThread(bid),
							decodeEither[A, B](r)))
					})
				})
			}),
		)
	})
}

func childA[A, B any](m MVar[eitherMsg[A, B]], a IO[A]) IO[Unit] {
	return Catch(
		Bind(Unblock(a), func(r A) IO[Unit] {
			return Put(m, eitherMsg[A, B]{tag: 0, a: r})
		}),
		func(e Exception) IO[Unit] { return Put(m, eitherMsg[A, B]{tag: 2, e: e}) },
	)
}

func childB[A, B any](m MVar[eitherMsg[A, B]], b IO[B]) IO[Unit] {
	return Catch(
		Bind(Unblock(b), func(r B) IO[Unit] {
			return Put(m, eitherMsg[A, B]{tag: 1, b: r})
		}),
		func(e Exception) IO[Unit] { return Put(m, eitherMsg[A, B]{tag: 2, e: e}) },
	)
}

func decodeEither[A, B any](r eitherMsg[A, B]) IO[Either[A, B]] {
	switch r.tag {
	case 0:
		return Return(MkLeft[A, B](r.a))
	case 1:
		return Return(MkRight[A, B](r.b))
	default:
		return Throw[Either[A, B]](r.e)
	}
}

// BothIO runs a and b concurrently and waits for both, returning the
// results as a pair (§7.2's `both`). If either child raises, the other
// is killed and the exception is rethrown; asynchronous exceptions
// received by the caller are propagated to both children.
func BothIO[A, B any](a IO[A], b IO[B]) IO[Pair[A, B]] {
	type msg = eitherMsg[A, B]
	return Bind(NewEmptyMVar[msg](), func(m MVar[msg]) IO[Pair[A, B]] {
		return Block(
			Bind(ForkNamed(childA(m, a), "both.a"), func(aid ThreadID) IO[Pair[A, B]] {
				return Bind(ForkNamed(childB(m, b), "both.b"), func(bid ThreadID) IO[Pair[A, B]] {
					var next func() IO[msg]
					next = func() IO[msg] {
						return Catch(Take(m), func(e Exception) IO[msg] {
							return Then(ThrowTo(aid, e),
								Then(ThrowTo(bid, e), Delay(next)))
						})
					}
					return Bind(next(), func(r1 msg) IO[Pair[A, B]] {
						if r1.tag == 2 {
							return Then(KillThread(aid), Then(KillThread(bid),
								Throw[Pair[A, B]](r1.e)))
						}
						return Bind(next(), func(r2 msg) IO[Pair[A, B]] {
							if r2.tag == 2 {
								return Then(KillThread(aid), Then(KillThread(bid),
									Throw[Pair[A, B]](r2.e)))
							}
							return Return(pairOf(r1, r2))
						})
					})
				})
			}),
		)
	})
}

func pairOf[A, B any](r1, r2 eitherMsg[A, B]) Pair[A, B] {
	var p Pair[A, B]
	for _, r := range []eitherMsg[A, B]{r1, r2} {
		if r.tag == 0 {
			p.Fst = r.a
		} else {
			p.Snd = r.b
		}
	}
	return p
}

// ---------------------------------------------------------------------
// §7.3 Time-outs
// ---------------------------------------------------------------------

// Timeout limits the execution time of a: Just the result if a
// finishes within d, Nothing otherwise (§7.3). The paper defines it as
// a race against a sleeping thread:
//
//	timeout t a = do r <- either (sleep t) a
//	                 case r of Left _  -> return Nothing
//	                           Right v -> return (Just v)
//
// Here the sleeper is folded into the caller's wait: a's result and
// the deadline are two outcomes of one TakeMVarFor, so no second thread
// is forked. As in EitherIO, a runs in a child forked inside Block with
// only a unblocked, so a body that catches everything cannot break the
// timeout (§9). On expiry or on the body's report the body is killed,
// as EitherIO kills its children; an asynchronous exception e reaching
// the waiting caller is forwarded to the body, which is killed, and
// rethrown — what EitherIO does when its sleeper dies of e first. Every
// outcome is thus one of the paper's. Timeouts nest freely without
// interfering, and the wrapped computation needs no checkpoints — the
// property the paper's conclusion credits to asynchronous exceptions.
func Timeout[A any](d time.Duration, a IO[A]) IO[Maybe[A]] {
	type msg = eitherMsg[Unit, A]
	return Bind(NewEmptyMVar[msg](), func(m MVar[msg]) IO[Maybe[A]] {
		return Block(Bind(ForkNamed(childB(m, a), "timeout.body"), func(bid ThreadID) IO[Maybe[A]] {
			wait := Catch(FromNode[any](sched.TakeMVarFor(m.mv, d)), func(e Exception) IO[any] {
				return Then(ThrowTo(bid, e), Then(KillThread(bid), Throw[any](e)))
			})
			return Bind(wait, func(r any) IO[Maybe[A]] {
				return Then(KillThread(bid), decodeTimeout[A](r))
			})
		}))
	})
}

// decodeTimeout turns what Timeout's wait returned — sched.Expired or
// the body's report — into its result.
func decodeTimeout[A any](r any) IO[Maybe[A]] {
	rep, reported := r.(eitherMsg[Unit, A])
	switch {
	case !reported:
		return Return(Nothing[A]())
	case rep.tag == 2:
		return Throw[Maybe[A]](rep.e)
	}
	return Return(Just(rep.b))
}

// TimeoutResult is the reified outcome of TryTimeout, distinguishing
// the three ways a timed computation can end. Exactly one of the three
// cases holds: Expired (the budget ran out first), Exc != nil (the
// body raised a synchronous exception), or neither (Value is the
// body's result).
type TimeoutResult[A any] struct {
	// Expired reports that the budget ran out before the body finished.
	Expired bool
	// Value is the body's result when !Expired and Exc == nil.
	Value A
	// Exc is the body's synchronous exception, or nil. Alert
	// exceptions (ThreadKilled, a caller-aimed Timeout, ...) are never
	// captured here — they propagate, because a cancellation aimed at
	// the caller must not be reported as a body failure.
	Exc Exception
}

// Succeeded reports that the body finished with a value in budget.
func (r TimeoutResult[A]) Succeeded() bool { return !r.Expired && r.Exc == nil }

// TryTimeout is Timeout with a three-way result: callers that need to
// know whether the budget expired or the body itself threw no longer
// have to nest Try inside Timeout (or, worse, pattern-match exception
// strings). The body's synchronous exceptions are captured with
// CatchNonAlert, so alerts — an asynchronous KillThread aimed at the
// caller, the §9 alert family — still propagate and cancellation
// cannot be mistaken for a body failure. The budget is Timeout's
// deadline on the caller's own wait, nesting freely.
func TryTimeout[A any](d time.Duration, a IO[A]) IO[TimeoutResult[A]] {
	body := CatchNonAlert(
		Map(a, func(v A) Attempt[A] { return Attempt[A]{Value: v} }),
		func(e Exception) IO[Attempt[A]] { return Return(Attempt[A]{Exc: e}) })
	return Bind(Timeout(d, body), func(r Maybe[Attempt[A]]) IO[TimeoutResult[A]] {
		if !r.IsJust {
			return Return(TimeoutResult[A]{Expired: true})
		}
		return Return(TimeoutResult[A]{Value: r.Value.Value, Exc: r.Value.Exc})
	})
}

// ---------------------------------------------------------------------
// Mask-with-restore (extension: GHC's modern mask API)
// ---------------------------------------------------------------------

// Mask is the mask-with-restore formulation GHC later adopted on top
// of this paper's block/unblock: the body runs masked and receives a
// restore function that re-establishes the mask state the caller had —
// not necessarily unmasked, which fixes block/unblock's one
// compositional wart (a library's Unblock could unmask a caller's
// Block). Provided as a documented extension; the paper's Block and
// Unblock remain the primitives.
func Mask[A any](body func(restore func(IO[A]) IO[A]) IO[A]) IO[A] {
	return Bind(GetMask(), func(outer MaskState) IO[A] {
		restore := func(m IO[A]) IO[A] {
			return FromNode[A](sched.MaskTo(m.Node(), outer))
		}
		return Block(body(restore))
	})
}

// MaskUnit is Mask specialized to Unit bodies whose restore is used at
// a different result type; Go's lack of higher-rank polymorphism means
// restore is monomorphic per Mask call, so a second entry point for
// the common effect-only case is worth having.
func MaskUnit(body func(restore func(IO[Unit]) IO[Unit]) IO[Unit]) IO[Unit] {
	return Mask(body)
}

// ---------------------------------------------------------------------
// Iteration helpers (not in the paper; standard monadic plumbing)
// ---------------------------------------------------------------------

// ReplicateM_ performs m n times.
func ReplicateM_[A any](n int, m IO[A]) IO[Unit] {
	var go_ func(i int) IO[Unit]
	go_ = func(i int) IO[Unit] {
		if i >= n {
			return Return(UnitValue)
		}
		return Then(m, Delay(func() IO[Unit] { return go_(i + 1) }))
	}
	return Delay(func() IO[Unit] { return go_(0) })
}

// ForM maps an action over a slice, collecting the results.
func ForM[A, B any](xs []A, f func(A) IO[B]) IO[[]B] {
	var go_ func(i int, acc []B) IO[[]B]
	go_ = func(i int, acc []B) IO[[]B] {
		if i >= len(xs) {
			return Return(acc)
		}
		return Bind(f(xs[i]), func(b B) IO[[]B] {
			return Delay(func() IO[[]B] { return go_(i+1, append(acc, b)) })
		})
	}
	return Delay(func() IO[[]B] { return go_(0, nil) })
}

// ForM_ runs an action over a slice for effect.
func ForM_[A, B any](xs []A, f func(A) IO[B]) IO[Unit] {
	var go_ func(i int) IO[Unit]
	go_ = func(i int) IO[Unit] {
		if i >= len(xs) {
			return Return(UnitValue)
		}
		return Then(f(xs[i]), Delay(func() IO[Unit] { return go_(i + 1) }))
	}
	return Delay(func() IO[Unit] { return go_(0) })
}

// Forever repeats m indefinitely (until an exception stops it).
func Forever[A any](m IO[A]) IO[Unit] {
	var loop IO[Unit]
	loop = Then(m, Delay(func() IO[Unit] { return loop }))
	return loop
}

// IterateUntil repeats m until it returns true.
func IterateUntil(m IO[bool]) IO[Unit] {
	var loop func() IO[Unit]
	loop = func() IO[Unit] {
		return Bind(m, func(done bool) IO[Unit] {
			if done {
				return Return(UnitValue)
			}
			return Delay(loop)
		})
	}
	return Delay(loop)
}

// ThrowErrorCall raises an ErrorCall with the given message, the
// analogue of Haskell's error in IO.
func ThrowErrorCall[A any](msg string) IO[A] {
	return Throw[A](exc.ErrorCall{Msg: msg})
}
