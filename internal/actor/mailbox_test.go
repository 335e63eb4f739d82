package actor

import (
	"slices"
	"testing"
	"time"

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

// TestReceiveAllSliceIsCallers checks that ReceiveAll hands over a
// slice the mailbox never touches again: overwriting it, even beyond
// its length, changes nothing a later receive sees.
func TestReceiveAllSliceIsCallers(t *testing.T) {
	type result struct{ first, second, third []int }
	got := runOK(t, core.Bind(NewMailbox[int]("own"), func(mb *Mailbox[int]) core.IO[result] {
		return core.Then(mb.SendAll([]int{1, 2, 3}), core.Bind(mb.ReceiveAll(), func(first []int) core.IO[result] {
			keep := slices.Clone(first)
			scribble := func() {
				full := first[:cap(first)]
				for i := range full {
					full[i] = -1
				}
			}
			scribble()
			return core.Then(core.Then(mb.Send(4), mb.SendAll([]int{5, 6})),
				core.Bind(core.Lift(func() core.Unit { scribble(); return core.UnitValue }), func(core.Unit) core.IO[result] {
					return core.Bind(mb.ReceiveAll(), func(second []int) core.IO[result] {
						return core.Then(mb.Send(7), core.Bind(mb.Receive(), func(m int) core.IO[result] {
							return core.Return(result{keep, slices.Clone(second), []int{m}})
						}))
					})
				}))
		}))
	}))
	if !slices.Equal(got.first, []int{1, 2, 3}) || !slices.Equal(got.second, []int{4, 5, 6}) || !slices.Equal(got.third, []int{7}) {
		t.Fatalf("receives read %v %v %v, want [1 2 3] [4 5 6] [7]", got.first, got.second, got.third)
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
