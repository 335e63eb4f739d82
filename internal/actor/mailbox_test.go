package actor

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"asyncexc/internal/core"
)

// backing returns the mailbox buffer's whole backing array, up to its
// capacity. Taken while the buffer still starts at the array's first
// slot, it also sees slots a later removal slices off the front.
func backing[M any](mb *Mailbox[M]) core.IO[[]M] {
	return core.Map(core.Read(mb.st), func(s mState[M]) []M { return s.buf[:cap(s.buf)] })
}

// TestDeliveredMessageNotRetained checks that a delivered message is
// unreachable from the mailbox, so an idle mailbox pins no garbage:
// both the front removal of TryReceive and the mid-buffer removal of a
// selective receive must clear the slot they vacate.
func TestDeliveredMessageNotRetained(t *testing.T) {
	type T struct{ n int }
	a, b, c := &T{1}, &T{2}, &T{3}
	type result struct {
		arr           []*T
		tried, picked *T
		heldTried     bool
		left          int
	}
	got := runOK(t, core.Bind(NewMailbox[*T]("gc"), func(mb *Mailbox[*T]) core.IO[result] {
		return core.Then(mb.SendAll([]*T{a, b, c}), core.Bind(backing(mb), func(arr []*T) core.IO[result] {
			return core.Bind(mb.TryReceive(), func(tried core.Maybe[*T]) core.IO[result] {
				heldTried := slices.Contains(arr, a)
				return core.Bind(mb.ReceiveWhere(func(p *T) bool { return p == c }), func(picked *T) core.IO[result] {
					return core.Bind(mb.Len(), func(left int) core.IO[result] {
						return core.Return(result{arr, tried.Value, picked, heldTried, left})
					})
				})
			})
		}))
	}))
	if got.tried != a || got.picked != c || got.left != 1 {
		t.Fatalf("TryReceive got %v, ReceiveWhere got %v, %d left; want a, c, 1", got.tried, got.picked, got.left)
	}
	if got.heldTried {
		t.Errorf("the buffer's backing array still references the message TryReceive delivered")
	}
	if slices.Contains(got.arr, c) {
		t.Errorf("the buffer's backing array still references the message ReceiveWhere delivered")
	}
	if !slices.Contains(got.arr, b) {
		t.Errorf("the undelivered message is gone from the buffer's backing array")
	}
}

// TestReceiveAllBatchLifetime checks the ReceiveAll contract: a batch
// is the caller's until its next receive. A send made while the batch
// is held never writes into it, even beyond its length; the next
// receive zeroes it, so it keeps no delivered message reachable; and
// from then on SendAll+ReceiveAll rounds alternate between exactly two
// backing arrays.
func TestReceiveAllBatchLifetime(t *testing.T) {
	type T struct{ n int }
	a, b, c, d := &T{1}, &T{2}, &T{3}, &T{4}
	const rounds = 6
	type result struct {
		first, second  []*T
		heldIntact     bool
		afterNext      []*T
		arrays         []**T
		roundsReceived int
	}
	got := runOK(t, core.Bind(NewMailbox[*T]("lifetime"), func(mb *Mailbox[*T]) core.IO[result] {
		var r result
		round := core.Then(mb.SendAll([]*T{a}), core.Bind(mb.ReceiveAll(), func(ms []*T) core.IO[core.Unit] {
			r.arrays = append(r.arrays, unsafe.SliceData(ms))
			r.roundsReceived += len(ms)
			return core.Return(core.UnitValue)
		}))
		return core.Then(mb.SendAll([]*T{a, b}), core.Bind(mb.ReceiveAll(), func(first []*T) core.IO[result] {
			r.first = slices.Clone(first)
			held := slices.Clone(first[:cap(first)])
			return core.Then(core.Then(mb.SendAll([]*T{c}), mb.Send(d)), core.Bind(core.Delay(func() core.IO[[]*T] {
				r.heldIntact = slices.Equal(first[:cap(first)], held)
				return mb.ReceiveAll()
			}), func(second []*T) core.IO[result] {
				r.second = slices.Clone(second)
				r.afterNext = first[:cap(first)]
				r.arrays = append(r.arrays, unsafe.SliceData(first), unsafe.SliceData(second))
				return core.Then(core.ReplicateM_(rounds, round), core.Delay(func() core.IO[result] { return core.Return(r) }))
			}))
		}))
	}))
	if !slices.Equal(got.first, []*T{a, b}) || !slices.Equal(got.second, []*T{c, d}) || got.roundsReceived != rounds {
		t.Fatalf("receives read %v %v and %d round messages, want [a b] [c d] and %d", got.first, got.second, got.roundsReceived, rounds)
	}
	if !got.heldIntact {
		t.Errorf("a send made while a batch was held wrote into its backing array")
	}
	for i, p := range got.afterNext {
		if p != nil {
			t.Errorf("after the next receive, slot %d of the old batch still references message %d", i, p.n)
		}
	}
	for i, arr := range got.arrays {
		if arr != got.arrays[i%2] {
			t.Fatalf("batch %d sits in a third backing array", i)
		}
	}
	if got.arrays[0] == got.arrays[1] {
		t.Errorf("consecutive batches share one backing array")
	}
}

// TestSpanRuns checks that the send spans of buffered messages survive
// selective removal and drain: each message reads the span of the send
// that carried it, a send under the last run's span extends that run,
// and a run emptied by removal goes.
func TestSpanRuns(t *testing.T) {
	var s mState[int]
	s.add(7, 1, 2, 3)
	s.add(7, 4)
	s.add(9, 5, 6)
	s.add(7, 7)
	if want := []spanRun{{7, 4}, {9, 2}, {7, 1}}; !slices.Equal(s.spans, want) {
		t.Fatalf("runs %v, want %v", s.spans, want)
	}
	late := func(m int) bool { return m > 4 }
	for _, want := range []struct{ m, span uint64 }{{5, 9}, {6, 9}, {7, 7}} {
		m, n, span := s.first(late)
		if n != 1 || uint64(m) != want.m || span != want.span {
			t.Fatalf("first = (%d, %d, span %d), want (%d, 1, span %d)", m, n, span, want.m, want.span)
		}
	}
	if want := []spanRun{{7, 4}}; !slices.Equal(s.spans, want) {
		t.Fatalf("runs after removals %v, want %v", s.spans, want)
	}
	s.add(3, 8)
	if m, _, span := s.first(func(m int) bool { return m == 2 }); m != 2 || span != 7 {
		t.Fatalf("removing message 2 read span %d, want 7", span)
	}
	if ms, n, span := s.drain(); n != 4 || !slices.Equal(ms, []int{1, 3, 4, 8}) || span != 7 || len(s.spans) != 0 {
		t.Fatalf("drain = (%v, %d, span %d), runs left %v", ms, n, span, s.spans)
	}
}

// TestMailboxRetainsHighWater is the mailbox row of DESIGN.md's
// Bounds table: after a burst the mailbox keeps two buffers of its
// high-water backlog and at most one span run a send, and steady
// traffic below it runs in them — no new backing array, no growth in
// capacity.
func TestMailboxRetainsHighWater(t *testing.T) {
	const burst, batch, rounds = 4096, 16, 50
	type shape struct {
		arrays    [2]*int
		bufs, spn int
	}
	look := func(mb *Mailbox[int]) core.IO[shape] {
		return core.Map(core.Read(mb.st), func(s mState[int]) shape {
			return shape{[2]*int{unsafe.SliceData(s.buf), unsafe.SliceData(s.spare)}, cap(s.buf) + cap(s.spare), cap(s.spans)}
		})
	}
	// buf and spare swap arrays every round.
	same := func(x, y shape) bool {
		swapped := [2]*int{y.arrays[1], y.arrays[0]}
		return x.bufs == y.bufs && x.spn == y.spn && (x.arrays == y.arrays || x.arrays == swapped)
	}
	var shapes []shape
	got := runOK(t, core.Bind(NewMailbox[int]("high-water"), func(mb *Mailbox[int]) core.IO[[]shape] {
		round := func(n int) core.IO[core.Unit] {
			return core.Seq(mb.SendAll(make([]int, n)), core.Void(mb.ReceiveAll()),
				core.Bind(look(mb), func(sh shape) core.IO[core.Unit] {
					shapes = append(shapes, sh)
					return core.Return(core.UnitValue)
				}))
		}
		return core.Then(core.Seq(round(burst), round(batch), core.ReplicateM_(rounds, round(batch))),
			core.Delay(func() core.IO[[]shape] { return core.Return(shapes) }))
	}))
	steady := got[1]
	if steady.bufs < burst {
		t.Fatalf("after the burst the mailbox keeps %d buffer slots, want at least %d", steady.bufs, burst)
	}
	if steady.spn > 2 {
		t.Fatalf("after two sends the mailbox keeps %d span-run slots, want at most one a send", steady.spn)
	}
	for i, sh := range got[2:] {
		if !same(sh, steady) {
			t.Fatalf("steady round %d: buffers %v (%d slots, %d spans), want %v (%d, %d)",
				i, sh.arrays, sh.bufs, sh.spn, steady.arrays, steady.bufs, steady.spn)
		}
	}
}

// TestRingAfterKillAtPark puts a ring in the window between a kill
// landing at the park and the receiver's unwind: the killer sends
// right after its throwTo returns, while the receiver is still parked
// in name. The message must stay queued, and the mailbox must serve
// the next parked receive normally — no ring left in the doorbell, no
// receiver left marked as parked.
func TestRingAfterKillAtPark(t *testing.T) {
	type result struct {
		unwound bool
		queued  core.Maybe[int]
		next    int
	}
	got := runOK(t, core.Bind(NewMailbox[int]("kill-ring"), func(mb *Mailbox[int]) core.IO[result] {
		var r result
		recv := core.Block(core.Bind(core.Try(mb.Receive()), func(a core.Attempt[int]) core.IO[core.Unit] {
			r.unwound = a.Failed()
			return core.Return(core.UnitValue)
		}))
		return core.Bind(core.Fork(recv), func(rtid core.ThreadID) core.IO[result] {
			return core.Then(core.Seq(
				core.Sleep(time.Millisecond), // the receiver parks
				core.Block(core.Then(core.KillThread(rtid), mb.Send(42))),
				core.Sleep(time.Millisecond), // the receiver unwinds
				core.Bind(mb.TryReceive(), func(m core.Maybe[int]) core.IO[core.Unit] {
					r.queued = m
					return core.Void(core.Fork(core.Then(core.Sleep(time.Millisecond), mb.Send(7))))
				}),
				core.Bind(mb.Receive(), func(m int) core.IO[core.Unit] {
					r.next = m
					return core.Return(core.UnitValue)
				}),
			), core.Delay(func() core.IO[result] { return core.Return(r) }))
		})
	}))
	if !got.unwound || !got.queued.IsJust || got.queued.Value != 42 || got.next != 7 {
		t.Fatalf("unwound=%v queued=%v next=%d; want true, Just 42, 7", got.unwound, got.queued, got.next)
	}
}
