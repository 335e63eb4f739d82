package conc_test

import (
	"testing"
	"time"

	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
)

func run[A comparable](t *testing.T, m core.IO[A], want A) {
	t.Helper()
	v, e, err := core.Run(m)
	if err != nil {
		t.Fatalf("runtime error: %v", err)
	}
	if e != nil {
		t.Fatalf("uncaught exception: %v", exc.Format(e))
	}
	if v != want {
		t.Fatalf("got %v, want %v", v, want)
	}
}

// --- Chan ---------------------------------------------------------------

func TestChanFIFO(t *testing.T) {
	m := core.Bind(conc.NewChan[int](), func(ch conc.Chan[int]) core.IO[int] {
		return core.Then(
			core.Seq(ch.Write(1), ch.Write(2), ch.Write(3)),
			core.Bind(ch.Read(), func(a int) core.IO[int] {
				return core.Bind(ch.Read(), func(b int) core.IO[int] {
					return core.Bind(ch.Read(), func(c int) core.IO[int] {
						return core.Return(a*100 + b*10 + c)
					})
				})
			}))
	})
	run(t, m, 123)
}

func TestChanReaderWaits(t *testing.T) {
	m := core.Bind(conc.NewChan[string](), func(ch conc.Chan[string]) core.IO[string] {
		return core.Then(
			core.Void(core.Fork(core.Then(core.Sleep(time.Second), ch.Write("hello")))),
			ch.Read())
	})
	run(t, m, "hello")
}

func TestChanManyProducersOneConsumer(t *testing.T) {
	const producers, items = 5, 20
	m := core.Bind(conc.NewChan[int](), func(ch conc.Chan[int]) core.IO[int] {
		forks := core.Return(core.UnitValue)
		for p := 0; p < producers; p++ {
			prod := core.ForM_(make([]struct{}, items), func(struct{}) core.IO[core.Unit] {
				return ch.Write(1)
			})
			forks = core.Then(forks, core.Void(core.Fork(prod)))
		}
		var drain func(left, acc int) core.IO[int]
		drain = func(left, acc int) core.IO[int] {
			if left == 0 {
				return core.Return(acc)
			}
			return core.Bind(ch.Read(), func(v int) core.IO[int] {
				return core.Delay(func() core.IO[int] { return drain(left-1, acc+v) })
			})
		}
		return core.Then(forks, drain(producers*items, 0))
	})
	run(t, m, producers*items)
}

func TestChanInterruptedReaderLeavesChannelIntact(t *testing.T) {
	// Kill a reader parked on an empty channel; a later write must
	// still be readable by another reader.
	m := core.Bind(conc.NewChan[int](), func(ch conc.Chan[int]) core.IO[int] {
		return core.Bind(core.Fork(core.Void(ch.Read())), func(victim core.ThreadID) core.IO[int] {
			return core.Then(core.Seq(
				core.Sleep(time.Millisecond), // reader parks
				core.KillThread(victim),
				core.Sleep(time.Millisecond), // reader dies
				ch.Write(7),
			), ch.Read())
		})
	})
	run(t, m, 7)
}

func TestChanDupMulticast(t *testing.T) {
	m := core.Bind(conc.NewChan[int](), func(ch conc.Chan[int]) core.IO[int] {
		return core.Bind(ch.Dup(), func(dup conc.Chan[int]) core.IO[int] {
			return core.Then(ch.Write(5),
				core.Bind(ch.Read(), func(a int) core.IO[int] {
					return core.Bind(dup.Read(), func(b int) core.IO[int] {
						return core.Return(a * b)
					})
				}))
		})
	})
	run(t, m, 25)
}

func TestChanUnget(t *testing.T) {
	m := core.Bind(conc.NewChan[int](), func(ch conc.Chan[int]) core.IO[int] {
		return core.Then(core.Seq(ch.Write(2), ch.Unget(1)),
			core.Bind(ch.Read(), func(a int) core.IO[int] {
				return core.Bind(ch.Read(), func(b int) core.IO[int] {
					return core.Return(a*10 + b)
				})
			}))
	})
	run(t, m, 12)
}

func TestChanTryRead(t *testing.T) {
	m := core.Bind(conc.NewChan[int](), func(ch conc.Chan[int]) core.IO[string] {
		return core.Bind(ch.TryRead(), func(r core.Maybe[int]) core.IO[string] {
			if r.IsJust {
				return core.Return("non-empty?")
			}
			return core.Then(ch.Write(3), core.Bind(ch.TryRead(), func(r2 core.Maybe[int]) core.IO[string] {
				if r2.IsJust && r2.Value == 3 {
					return core.Return("ok")
				}
				return core.Return("missing")
			}))
		})
	})
	run(t, m, "ok")
}

// --- QSem ---------------------------------------------------------------

func TestQSemMutualExclusion(t *testing.T) {
	const workers = 8
	m := core.Bind(conc.NewQSem(1), func(q conc.QSem) core.IO[bool] {
		inside := 0
		bad := false
		body := core.Seq(
			core.Lift(func() core.Unit {
				inside++
				if inside > 1 {
					bad = true
				}
				return core.UnitValue
			}),
			core.Yield(),
			core.Lift(func() core.Unit { inside--; return core.UnitValue }),
		)
		return core.Bind(conc.NewQSemN(0), func(done conc.QSemN) core.IO[bool] {
			forks := core.Return(core.UnitValue)
			for i := 0; i < workers; i++ {
				forks = core.Then(forks, core.Void(core.Fork(
					core.Then(conc.With(q, body), done.Signal(1)))))
			}
			return core.Then(forks, core.Then(done.Wait(workers),
				core.Lift(func() bool { return !bad })))
		})
	})
	run(t, m, true)
}

func TestQSemInterruptedWaiterDoesNotLeakUnits(t *testing.T) {
	// A waiter is killed while parked; the unit signalled afterwards
	// must still reach the surviving waiter.
	m := core.Bind(conc.NewQSem(0), func(q conc.QSem) core.IO[string] {
		return core.Bind(core.NewEmptyMVar[string](), func(done core.MVar[string]) core.IO[string] {
			victim := core.Catch(
				core.Then(q.Wait(), core.Put(done, "victim-acquired")),
				func(core.Exception) core.IO[core.Unit] { return core.Return(core.UnitValue) })
			survivor := core.Then(q.Wait(), core.Put(done, "survivor-acquired"))
			return core.Bind(core.Fork(victim), func(vid core.ThreadID) core.IO[string] {
				return core.Then(core.Seq(
					core.Sleep(time.Millisecond), // victim parks first (FIFO head)
					core.Void(core.Fork(survivor)),
					core.Sleep(time.Millisecond),
					core.KillThread(vid),
					core.Sleep(time.Millisecond),
					q.Signal(),
				), core.Take(done))
			})
		})
	})
	run(t, m, "survivor-acquired")
}

func TestQSemNBatch(t *testing.T) {
	m := core.Bind(conc.NewQSemN(3), func(q conc.QSemN) core.IO[string] {
		return core.Bind(core.NewEmptyMVar[string](), func(done core.MVar[string]) core.IO[string] {
			big := core.Then(q.Wait(5), core.Put(done, "big-ran"))
			return core.Then(core.Seq(
				core.Void(core.Fork(big)),
				core.Sleep(time.Millisecond), // big parks: only 3 available
				q.Signal(2),                  // now 5: big proceeds
			), core.Take(done))
		})
	})
	run(t, m, "big-ran")
}

// --- Async ---------------------------------------------------------------

func TestAsyncWait(t *testing.T) {
	m := core.Bind(conc.Spawn(core.Then(core.Sleep(time.Millisecond), core.Return(11))), func(a conc.Async[int]) core.IO[int] {
		return a.Wait()
	})
	run(t, m, 11)
}

func TestAsyncWaitRethrows(t *testing.T) {
	m := core.Bind(conc.Spawn(core.Throw[int](exc.ErrorCall{Msg: "task failed"})), func(a conc.Async[int]) core.IO[string] {
		return core.Bind(core.Try(a.Wait()), func(r core.Attempt[int]) core.IO[string] {
			if r.Failed() && r.Exc.Eq(exc.ErrorCall{Msg: "task failed"}) {
				return core.Return("rethrown")
			}
			return core.Return("wrong")
		})
	})
	run(t, m, "rethrown")
}

func TestAsyncCancel(t *testing.T) {
	m := core.Bind(conc.Spawn(core.Then(core.Sleep(time.Hour), core.Return(1))), func(a conc.Async[int]) core.IO[string] {
		return core.Then(a.Cancel(), core.Bind(a.WaitCatch(), func(r core.Attempt[int]) core.IO[string] {
			if r.Failed() && r.Exc.Eq(exc.ThreadKilled{}) {
				return core.Return("cancelled")
			}
			return core.Return("wrong")
		}))
	})
	run(t, m, "cancelled")
}

func TestAsyncMultipleWaiters(t *testing.T) {
	m := core.Bind(conc.Spawn(core.Then(core.Sleep(time.Millisecond), core.Return(5))), func(a conc.Async[int]) core.IO[int] {
		return core.Bind(conc.Spawn(a.Wait()), func(w1 conc.Async[int]) core.IO[int] {
			return core.Bind(conc.Spawn(a.Wait()), func(w2 conc.Async[int]) core.IO[int] {
				return core.Bind(w1.Wait(), func(x int) core.IO[int] {
					return core.Bind(w2.Wait(), func(y int) core.IO[int] {
						return core.Return(x + y)
					})
				})
			})
		})
	})
	run(t, m, 10)
}

func TestWithAsyncCancelsOnExit(t *testing.T) {
	m := core.Bind(core.NewEmptyMVar[string](), func(probe core.MVar[string]) core.IO[string] {
		long := core.Then(core.Sleep(time.Hour), core.Then(core.Put(probe, "survived"), core.Return(1)))
		return core.Then(
			conc.WithAsync(long, func(a conc.Async[int]) core.IO[string] {
				return core.Return("inner-done")
			}),
			core.Then(core.Sleep(10*time.Second),
				core.Bind(core.TryTake(probe), func(r core.Maybe[string]) core.IO[string] {
					if r.IsJust {
						return core.Return("leaked")
					}
					return core.Return("cancelled")
				})))
	})
	run(t, m, "cancelled")
}
