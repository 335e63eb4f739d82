package actor

import (
	"slices"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/sched"
)

// mState is the mailbox state held inside one MVar: the buffered
// messages in arrival order, their obs send spans in a parallel array
// (no pointers, so the collector never scans it), and whether the
// receiver — at most one, a mailbox has a single consumer — is parked
// on the doorbell, with the selective-receive predicate a message must
// satisfy to ring it (nil accepts anything).
//
// spare is the buffer's other backing array. While the receiver holds
// a drained batch, spare is that batch (so its length is nonzero); the
// receiver's next receive clears it to an empty spare, which the next
// drain installs as buf. In steady state two arrays alternate: one
// takes sends while the handler reads the other.
type mState[M any] struct {
	buf    []M
	spare  []M
	spans  []uint64
	parked bool
	pred   func(M) bool
}

// recycle takes back the batch the last drain lent out: its slots are
// zeroed, so no delivered message stays reachable, and it becomes the
// empty spare. It runs as the single consumer enters its next receive,
// when that batch is no longer the caller's.
func (s *mState[M]) recycle() {
	clear(s.spare)
	s.spare = s.spare[:0]
}

// remove deletes buf[i]. slices.Delete zeroes the vacated slot, so the
// backing array keeps no reference to a delivered message.
func (s *mState[M]) remove(i int) {
	s.buf = slices.Delete(s.buf, i, i+1)
	s.spans = slices.Delete(s.spans, i, i+1)
}

// first removes and returns the oldest message satisfying pred (nil
// accepts anything) and its send span; n is 0 when none does.
func (s *mState[M]) first(pred func(M) bool) (m M, n int, span uint64) {
	for i := range s.buf {
		if pred == nil || pred(s.buf[i]) {
			m, span = s.buf[i], s.spans[i]
			s.remove(i)
			return m, 1, span
		}
	}
	return m, 0, 0
}

// drain hands over the whole buffer and the first message's send span.
// The returned slice is lent until the receiver's next receive: the
// empty spare becomes the buffer, so no send writes into the batch
// meanwhile, and the batch is kept as the spare that receive recycles.
// The spans array holds no pointers and is kept for the next batch;
// its capacity is the mailbox's high-water backlog, 8 bytes a message.
func (s *mState[M]) drain() (ms []M, n int, span uint64) {
	if len(s.buf) == 0 {
		return nil, 0, 0
	}
	ms, span = s.buf, s.spans[0]
	s.buf, s.spare, s.spans = s.spare, ms, s.spans[:0]
	return ms, len(ms), span
}

// Mailbox is a typed actor mailbox built purely from the paper's
// primitives: an MVar-guarded queue plus a doorbell MVar the receiver
// parks on while nothing it wants is queued. The park is a real
// takeMVar, so an asynchronous exception lands exactly where the
// paper's interruptible-operations rule (§5.3) says it may: at the
// waiting receive, and nowhere inside the state update. A sender only
// rings the bell; the woken receiver takes the lock and removes the
// message itself, so a message never leaves the queue outside the
// lock and a kill anywhere in a receive finds it still queued. Sends
// never wait (the critical section contains only a Put into a
// known-empty bell), the shape conc.Chan established.
//
// A mailbox is single-consumer: one actor drains it. A second
// concurrent Receive raises an ErrorCall rather than parking a second
// receiver on the one doorbell.
type Mailbox[M any] struct {
	name string
	st   core.MVar[mState[M]]
	bell core.MVar[core.Unit]
}

// NewMailbox creates an empty mailbox. The name labels its obs events
// and stats; "" suppresses nothing (events still record).
func NewMailbox[M any](name string) core.IO[*Mailbox[M]] {
	return core.Bind(core.NewMVar(mState[M]{}), func(st core.MVar[mState[M]]) core.IO[*Mailbox[M]] {
		return core.Bind(core.NewEmptyMVar[core.Unit](), func(bell core.MVar[core.Unit]) core.IO[*Mailbox[M]] {
			return core.Return(&Mailbox[M]{name: name, st: st, bell: bell})
		})
	})
}

// Name returns the mailbox's label.
func (mb *Mailbox[M]) Name() string { return mb.name }

// locked runs compute as the mailbox critical section: masked at
// least as strongly as the caller. Plain ModifyMVarValueMasked
// hardcodes Block, which would *downgrade* a caller running under
// BlockUninterruptible (entering Block sets the state to Masked) and
// reopen an interruption window inside an uninterruptible fanout —
// exactly the window the broker's zero-lost guarantee closes. So the
// section elevates: Masked normally, MaskedUninterruptible when the
// caller already is.
func locked[M, B any](mb *Mailbox[M], compute func(mState[M]) core.IO[core.Pair[mState[M], B]]) core.IO[B] {
	body := core.Bind(core.Take(mb.st), func(s mState[M]) core.IO[B] {
		return core.Bind(
			core.Catch(compute(s), func(e core.Exception) core.IO[core.Pair[mState[M], B]] {
				return core.Then(core.Put(mb.st, s), core.Throw[core.Pair[mState[M], B]](e))
			}),
			func(p core.Pair[mState[M], B]) core.IO[B] {
				return core.Then(core.Put(mb.st, p.Fst), core.Return(p.Snd))
			},
		)
	})
	return core.Bind(core.GetMask(), func(ms core.MaskState) core.IO[B] {
		if ms == core.MaskedUninterruptible {
			return core.BlockUninterruptible(body)
		}
		return core.Block(body)
	})
}

// ring finishes a send's critical section whose messages are s.buf[n:]:
// if the parked receiver wants one of them, it is unparked and its
// doorbell rung. The bell is empty whenever the receiver is parked, so
// the Put cannot wait and hence cannot be interrupted (§5.3).
func (mb *Mailbox[M]) ring(s mState[M], n int) core.IO[core.Pair[mState[M], core.Unit]] {
	if !s.parked || (s.pred != nil && !slices.ContainsFunc(s.buf[n:], s.pred)) {
		return core.Return(core.MkPair(s, core.UnitValue))
	}
	s.parked, s.pred = false, nil
	return core.Then(core.Put(mb.bell, core.UnitValue), core.Return(core.MkPair(s, core.UnitValue)))
}

// Send enqueues m, ringing a parked receiver that wants it. It never
// waits for a consumer.
func (mb *Mailbox[M]) Send(m M) core.IO[core.Unit] {
	return core.Bind(noteSend(mb.name, 1), func(span uint64) core.IO[core.Unit] {
		return locked(mb, func(s mState[M]) core.IO[core.Pair[mState[M], core.Unit]] {
			s.buf = append(s.buf, m)
			s.spans = append(s.spans, span)
			return mb.ring(s, len(s.buf)-1)
		})
	})
}

// SendAll enqueues a batch in one critical section — the amortized
// path high-throughput senders (the broker's fanout) use. Messages
// keep their slice order and are copied into the mailbox in one go;
// ms stays the caller's.
func (mb *Mailbox[M]) SendAll(ms []M) core.IO[core.Unit] {
	if len(ms) == 0 {
		return core.Return(core.UnitValue)
	}
	return core.Bind(noteSend(mb.name, uint64(len(ms))), func(span uint64) core.IO[core.Unit] {
		return locked(mb, func(s mState[M]) core.IO[core.Pair[mState[M], core.Unit]] {
			n := len(s.buf)
			s.buf = append(s.buf, ms...)
			s.spans = slices.Grow(s.spans, len(ms))
			for range ms {
				s.spans = append(s.spans, span)
			}
			return mb.ring(s, n)
		})
	})
}

// errConcurrentReceive reports a second consumer on a single-consumer
// mailbox.
func errConcurrentReceive(name string) core.Exception {
	return exc.ErrorCall{Msg: "actor: concurrent Receive on single-consumer mailbox " + name}
}

// receive is the one receive loop. Under the lock, the batch a
// previous ReceiveAll lent out is recycled, then take removes what
// the caller wants (n messages, the first sent under span). When
// nothing fits, the receiver marks itself parked with pred and waits
// on the doorbell — the paper's interruptible takeMVar, even under
// Block (§5.3). A ring only says that something wanted has arrived:
// the woken receiver goes round again and takes it under the lock
// itself. So a kill that lands at the park, or on the re-lock after a
// wake, finds every message still queued.
func receive[M, R any](mb *Mailbox[M], pred func(M) bool, take func(*mState[M]) (R, int, uint64)) core.IO[core.Pair[R, uint64]] {
	try := locked(mb, func(s mState[M]) core.IO[core.Pair[mState[M], core.Maybe[core.Pair[R, uint64]]]] {
		if s.parked {
			return core.Throw[core.Pair[mState[M], core.Maybe[core.Pair[R, uint64]]]](errConcurrentReceive(mb.name))
		}
		s.recycle()
		if got, n, span := take(&s); n > 0 {
			return core.Then(noteDeliver(mb.name, uint64(n), span),
				core.Return(core.MkPair(s, core.Just(core.MkPair(got, span)))))
		}
		s.parked, s.pred = true, pred
		return core.Return(core.MkPair(s, core.Nothing[core.Pair[R, uint64]]()))
	})
	park := core.Catch(core.Take(mb.bell), func(e core.Exception) core.IO[core.Unit] {
		return core.Then(mb.unhook(), core.Throw[core.Unit](e))
	})
	var loop core.IO[core.Pair[R, uint64]]
	loop = core.Bind(try, func(got core.Maybe[core.Pair[R, uint64]]) core.IO[core.Pair[R, uint64]] {
		if got.IsJust {
			return core.Return(got.Value)
		}
		return core.Then(park, loop)
	})
	return core.Block(loop)
}

// unhook undoes an interrupted park: the receiver is unmarked, or, if a
// sender rang the bell in the race, the ring is drained so the bell is
// empty for the next park. Uninterruptible: abandoned halfway, it would
// leave the receiver marked (the next receive would report a concurrent
// one) or the bell full (the next ring's Put would wait inside the
// lock).
func (mb *Mailbox[M]) unhook() core.IO[core.Unit] {
	return core.BlockUninterruptible(locked(mb, func(s mState[M]) core.IO[core.Pair[mState[M], core.Unit]] {
		if s.parked {
			s.parked, s.pred = false, nil
			return core.Return(core.MkPair(s, core.UnitValue))
		}
		return core.Then(core.Void(core.TryTake(mb.bell)), core.Return(core.MkPair(s, core.UnitValue)))
	}))
}

// Receive dequeues the oldest message, waiting while the mailbox is
// empty. The wait is the paper's interruptible takeMVar: a throwTo
// aimed at the actor lands there (or not at all until the next
// receive, if the actor is busy handling under Block) — never between
// dequeue and handler. A receiver interrupted while waiting leaves the
// mailbox exactly as it was: no message left the queue.
func (mb *Mailbox[M]) Receive() core.IO[M] {
	return mb.ReceiveWhere(nil)
}

// ReceiveWhere is selective receive: it dequeues the oldest message
// satisfying pred (nil accepts anything), skipping — but keeping, in
// order — the ones that do not match, Erlang's save-queue semantics.
// It parks like Receive when no buffered message matches.
func (mb *Mailbox[M]) ReceiveWhere(pred func(M) bool) core.IO[M] {
	return core.Map(mb.receiveOne(pred), fst[M, uint64])
}

// receiveOne is ReceiveWhere with the message's send span (the actor
// loop threads it into the handle event).
func (mb *Mailbox[M]) receiveOne(pred func(M) bool) core.IO[core.Pair[M, uint64]] {
	return receive(mb, pred, func(s *mState[M]) (M, int, uint64) { return s.first(pred) })
}

// ReceiveAll drains every buffered message in one critical section,
// parking like Receive when the mailbox is empty. This is the
// amortized receive the actor loop's batch mode uses: the per-message
// cost of the locked section falls to O(1/batch). The returned slice
// is the mailbox's own drained buffer, handed over without a copy and
// valid until the receiver's next receive, which zeroes it and reuses
// it as the buffer later sends fill. A caller that keeps messages
// longer copies them out first.
func (mb *Mailbox[M]) ReceiveAll() core.IO[[]M] {
	return core.Map(mb.receiveAll(), fst[[]M, uint64])
}

// receiveAll is ReceiveAll with the first message's send span.
func (mb *Mailbox[M]) receiveAll() core.IO[core.Pair[[]M, uint64]] {
	return receive(mb, nil, (*mState[M]).drain)
}

// fst drops the span the public receives do not return.
func fst[A, B any](p core.Pair[A, B]) A { return p.Fst }

// TryReceive is a non-waiting Receive.
func (mb *Mailbox[M]) TryReceive() core.IO[core.Maybe[M]] {
	return locked(mb, func(s mState[M]) core.IO[core.Pair[mState[M], core.Maybe[M]]] {
		m, n, span := s.first(nil)
		if n == 0 {
			return core.Return(core.MkPair(s, core.Nothing[M]()))
		}
		return core.Then(noteDeliver(mb.name, 1, span), core.Return(core.MkPair(s, core.Just(m))))
	})
}

// Len returns the number of buffered messages.
func (mb *Mailbox[M]) Len() core.IO[int] {
	return locked(mb, func(s mState[M]) core.IO[core.Pair[mState[M], int]] {
		return core.Return(core.MkPair(s, len(s.buf)))
	})
}

// ---------------------------------------------------------------------
// obs notes
// ---------------------------------------------------------------------

func noteSend(mailbox string, count uint64) core.IO[uint64] {
	return core.FromNode[uint64](sched.NoteActorSend(mailbox, count))
}

func noteDeliver(mailbox string, count uint64, span uint64) core.IO[core.Unit] {
	return core.FromNode[core.Unit](sched.NoteActorDeliver(mailbox, count, span))
}

func noteHandle(mailbox string, count uint64, span uint64) core.IO[core.Unit] {
	return core.FromNode[core.Unit](sched.NoteActorHandle(mailbox, count, span))
}
