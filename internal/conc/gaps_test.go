package conc_test

import (
	"testing"
	"time"

	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
)

func TestAsyncPoll(t *testing.T) {
	m := core.Bind(conc.Spawn(core.Then(core.Sleep(time.Second), core.Return(5))), func(a conc.Async[int]) core.IO[string] {
		return core.Bind(a.Poll(), func(first core.Maybe[core.Attempt[int]]) core.IO[string] {
			if first.IsJust {
				return core.Return("finished-too-early")
			}
			return core.Then(core.Sleep(2*time.Second),
				core.Bind(a.Poll(), func(second core.Maybe[core.Attempt[int]]) core.IO[string] {
					if !second.IsJust || second.Value.Failed() || second.Value.Value != 5 {
						return core.Return("bad-second-poll")
					}
					// Poll is non-destructive: Wait still works.
					return core.Bind(a.Wait(), func(v int) core.IO[string] {
						if v != 5 {
							return core.Return("bad-wait")
						}
						return core.Return("ok")
					})
				}))
		})
	})
	run(t, m, "ok")
}

func TestAsyncThreadID(t *testing.T) {
	m := core.Bind(conc.Spawn(core.Return(1)), func(a conc.Async[int]) core.IO[bool] {
		// The handle's thread can be targeted directly.
		return core.Then(core.ThrowTo(a.ThreadID(), exc.ThreadKilled{}),
			core.Bind(a.WaitCatch(), func(r core.Attempt[int]) core.IO[bool] {
				// Either it finished (fast) or was killed: both settle.
				return core.Return(true)
			}))
	})
	run(t, m, true)
}

func TestQSemNInterruptedWaiterUnregisters(t *testing.T) {
	// A QSemN waiter killed while parked must not leave the semaphore
	// queue corrupted: a later signal still serves the survivor.
	m := core.Bind(conc.NewQSemN(0), func(q conc.QSemN) core.IO[string] {
		return core.Bind(core.NewEmptyMVar[string](), func(done core.MVar[string]) core.IO[string] {
			victim := core.Catch(
				core.Then(q.Wait(2), core.Put(done, "victim")),
				func(core.Exception) core.IO[core.Unit] { return core.Return(core.UnitValue) })
			survivor := core.Then(q.Wait(1), core.Put(done, "survivor"))
			return core.Bind(core.Fork(victim), func(vid core.ThreadID) core.IO[string] {
				return core.Then(core.Seq(
					core.Sleep(time.Millisecond), // victim parks (head of queue)
					core.Void(core.Fork(survivor)),
					core.Sleep(time.Millisecond),
					core.KillThread(vid),
					core.Sleep(time.Millisecond),
					q.Signal(1),
				), core.Take(done))
			})
		})
	})
	run(t, m, "survivor")
}
