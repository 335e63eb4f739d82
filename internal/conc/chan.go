// Package conc provides the derived concurrent data structures the
// paper says MVars support (§4: "Using only MVars, many complex
// datatypes for concurrent communication can be built, including typed
// channels, semaphores and so on"), built exception-safely with the
// asyncexc combinators so they stay consistent under asynchronous
// exceptions:
//
//   - Chan: an unbounded FIFO channel (the classic Concurrent Haskell
//     stream-of-MVars construction)
//   - QSem / QSemN: quantity semaphores
//   - Async: supervised forks with wait/poll/cancel/link
//   - Group / MapConcurrently / Race: structured concurrency
//   - Pool: a fixed worker pool with tear-free shutdown
package conc

import (
	"asyncexc/internal/core"
)

// chItem is one cell of a channel's stream: a value plus the MVar that
// will hold the next cell.
type chItem[A any] struct {
	val  A
	rest core.MVar[chItem[A]]
}

// Chan is an unbounded FIFO channel. Reads wait for data; writes never
// wait. Both ends are protected by their own MVar lock, so any number
// of readers and writers may share the channel; each item is delivered
// to exactly one reader.
type Chan[A any] struct {
	readEnd  core.MVar[core.MVar[chItem[A]]]
	writeEnd core.MVar[core.MVar[chItem[A]]]
}

// NewChan creates an empty channel.
func NewChan[A any]() core.IO[Chan[A]] {
	return core.Bind(core.NewEmptyMVar[chItem[A]](), func(hole core.MVar[chItem[A]]) core.IO[Chan[A]] {
		return core.Bind(core.NewMVar(hole), func(re core.MVar[core.MVar[chItem[A]]]) core.IO[Chan[A]] {
			return core.Bind(core.NewMVar(hole), func(we core.MVar[core.MVar[chItem[A]]]) core.IO[Chan[A]] {
				return core.Return(Chan[A]{readEnd: re, writeEnd: we})
			})
		})
	})
}

// Write appends v to the channel. It acquires the write-end lock for a
// bounded number of non-waiting steps, so it is effectively
// non-blocking and safe under asynchronous exceptions: the lock is
// restored if the writer is interrupted while acquiring it.
func (c Chan[A]) Write(v A) core.IO[core.Unit] {
	return core.Bind(core.NewEmptyMVar[chItem[A]](), func(hole core.MVar[chItem[A]]) core.IO[core.Unit] {
		return core.ModifyMVarValueMasked(c.writeEnd,
			func(old core.MVar[chItem[A]]) core.IO[core.Pair[core.MVar[chItem[A]], core.Unit]] {
				// old is the current hole: always empty, so this Put
				// cannot wait and cannot be interrupted (§5.3).
				return core.Then(
					core.Put(old, chItem[A]{val: v, rest: hole}),
					core.Return(core.MkPair(hole, core.UnitValue)))
			})
	})
}

// Read removes and returns the next item, waiting while the channel is
// empty. The wait is interruptible; if the reader is interrupted the
// channel is left exactly as it was.
func (c Chan[A]) Read() core.IO[A] {
	return core.ModifyMVarValueMasked(c.readEnd,
		func(s core.MVar[chItem[A]]) core.IO[core.Pair[core.MVar[chItem[A]], A]] {
			// Non-destructive read of the stream cell (Take then Put
			// back) so that duplicated channels (Dup) see every item.
			// The Take waits for a writer and is the interruption
			// point; the Put back is to an empty MVar, uninterruptible.
			return core.Bind(core.Take(s), func(item chItem[A]) core.IO[core.Pair[core.MVar[chItem[A]], A]] {
				return core.Then(core.Put(s, item),
					core.Return(core.MkPair(item.rest, item.val)))
			})
		})
}

// TryRead is a non-waiting Read.
func (c Chan[A]) TryRead() core.IO[core.Maybe[A]] {
	return core.ModifyMVarValueMasked(c.readEnd,
		func(s core.MVar[chItem[A]]) core.IO[core.Pair[core.MVar[chItem[A]], core.Maybe[A]]] {
			return core.Bind(core.TryTake(s), func(r core.Maybe[chItem[A]]) core.IO[core.Pair[core.MVar[chItem[A]], core.Maybe[A]]] {
				if !r.IsJust {
					return core.Return(core.MkPair(s, core.Nothing[A]()))
				}
				item := r.Value
				return core.Then(core.Put(s, item),
					core.Return(core.MkPair(item.rest, core.Just(item.val))))
			})
		})
}

// Dup creates a new read end starting at the current write position:
// items written after Dup are seen by both the original and the
// duplicate (multicast), as in Concurrent Haskell's dupChan.
func (c Chan[A]) Dup() core.IO[Chan[A]] {
	return core.Bind(core.Read(c.writeEnd), func(hole core.MVar[chItem[A]]) core.IO[Chan[A]] {
		return core.Bind(core.NewMVar(hole), func(re core.MVar[core.MVar[chItem[A]]]) core.IO[Chan[A]] {
			return core.Return(Chan[A]{readEnd: re, writeEnd: c.writeEnd})
		})
	})
}

// Unget pushes v back onto the front of the channel so the next Read
// returns it.
func (c Chan[A]) Unget(v A) core.IO[core.Unit] {
	return core.ModifyMVarValueMasked(c.readEnd,
		func(s core.MVar[chItem[A]]) core.IO[core.Pair[core.MVar[chItem[A]], core.Unit]] {
			return core.Bind(core.NewMVar(chItem[A]{val: v, rest: s}),
				func(cell core.MVar[chItem[A]]) core.IO[core.Pair[core.MVar[chItem[A]], core.Unit]] {
					return core.Return(core.MkPair(cell, core.UnitValue))
				})
		})
}
