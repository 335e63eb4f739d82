package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

func parOpts(shards int) Options {
	return Options{TimeSlice: 50, DetectDeadlock: true, Shards: shards}
}

// TestParallelPingPong runs a two-thread MVar handoff loop at several
// shard counts; every round trip crosses the committed-handoff path.
func TestParallelPingPong(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		rt := NewRT(parOpts(shards))
		main := Bind(NewEmptyMVar(), func(a any) Node {
			ping := a.(*MVar)
			return Bind(NewEmptyMVar(), func(b any) Node {
				pong := b.(*MVar)
				var drive func(i int) Node
				drive = func(i int) Node {
					if i == 0 {
						return Return("done")
					}
					return Bind(PutMVar(ping, i), func(any) Node {
						return Bind(TakeMVar(pong), func(any) Node { return drive(i - 1) })
					})
				}
				var echo func(i int) Node
				echo = func(i int) Node {
					if i == 0 {
						return Return(UnitValue)
					}
					return Bind(TakeMVar(ping), func(v any) Node {
						return Bind(PutMVar(pong, v), func(any) Node { return echo(i - 1) })
					})
				}
				return Bind(ForkNamed(echo(200), "echo"), func(any) Node { return drive(200) })
			})
		})
		res, err := rt.RunMain(main)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Value != "done" || res.Exc != nil {
			t.Fatalf("shards=%d: %+v", shards, res)
		}
		// Each of the 400 takes either completed immediately (MVarTakes)
		// or parked for a direct handoff (MVarTakeParks).
		st := rt.Stats()
		if got := st.MVarTakes + st.MVarTakeParks; got < 400 {
			t.Fatalf("shards=%d: takes+parks = %d, want >= 400", shards, got)
		}
	}
}

// TestParallelForkFanOut forks many workers that each count down
// through an MVar-protected cell, checking the final count and that
// every worker ran.
func TestParallelForkFanOut(t *testing.T) {
	const workers, increments = 16, 25
	rt := NewRT(parOpts(4))
	main := Bind(NewMVar(0), func(a any) Node {
		cell := a.(*MVar)
		return Bind(NewMVar(0), func(d any) Node {
			doneCount := d.(*MVar)
			bump := func(mv *MVar, by int) Node {
				return Bind(TakeMVar(mv), func(v any) Node { return PutMVar(mv, v.(int)+by) })
			}
			var work func(i int) Node
			work = func(i int) Node {
				if i == 0 {
					return bump(doneCount, 1)
				}
				return Bind(bump(cell, 1), func(any) Node { return work(i - 1) })
			}
			var spawn func(i int) Node
			spawn = func(i int) Node {
				if i == 0 {
					return Return(UnitValue)
				}
				return Bind(Fork(work(increments)), func(any) Node { return spawn(i - 1) })
			}
			var wait func() Node
			wait = func() Node {
				return Bind(TakeMVar(doneCount), func(v any) Node {
					n := v.(int)
					return Bind(PutMVar(doneCount, n), func(any) Node {
						if n == workers {
							return TakeMVar(cell)
						}
						return Bind(Sleep(time.Microsecond), func(any) Node { return wait() })
					})
				})
			}
			return Bind(spawn(workers), func(any) Node { return wait() })
		})
	})
	res, err := rt.RunMain(main)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != workers*increments {
		t.Fatalf("cell = %v, want %d", res.Value, workers*increments)
	}
}

// TestParallelThrowToStuck kills a parked victim from another thread;
// rule (Interrupt) must hold across shards in both throwTo designs.
func TestParallelThrowToStuck(t *testing.T) {
	for _, syncMode := range []bool{false, true} {
		opts := parOpts(4)
		opts.SyncThrowTo = syncMode
		rt := NewRT(opts)
		main := Bind(NewEmptyMVar(), func(a any) Node {
			done := a.(*MVar)
			victim := Catch(Bind(Sleep(time.Hour), func(any) Node { return Return(UnitValue) }),
				func(e exc.Exception) Node { return PutMVar(done, e) })
			return Bind(ForkNamed(victim, "victim"), func(v any) Node {
				tid := v.(ThreadID)
				return Bind(Sleep(time.Millisecond), func(any) Node {
					return Bind(ThrowTo(tid, exc.ThreadKilled{}), func(any) Node {
						return TakeMVar(done)
					})
				})
			})
		})
		res, err := rt.RunMain(main)
		if err != nil {
			t.Fatalf("sync=%v: %v", syncMode, err)
		}
		if _, ok := res.Value.(exc.ThreadKilled); !ok {
			t.Fatalf("sync=%v: got %+v", syncMode, res)
		}
		st := rt.Stats()
		if st.Delivered == 0 {
			t.Fatalf("sync=%v: no delivery recorded: %+v", syncMode, st)
		}
	}
}

// TestParallelMaskedWindow checks §5.3 across shards: a blocked victim
// holding the lock is not interrupted mid-critical-section; the
// exception lands at the interruptible takeMVar or stays pending until
// unblock.
func TestParallelMaskedWindow(t *testing.T) {
	rt := NewRT(parOpts(2))
	main := Bind(NewMVar(100), func(a any) Node {
		lock := a.(*MVar)
		body := Block(Bind(TakeMVar(lock), func(v any) Node {
			return Bind(Catch(Unblock(Bind(Sleep(time.Hour), func(any) Node { return Return(v) })),
				func(e exc.Exception) Node {
					return Bind(PutMVar(lock, v), func(any) Node { return throwNode{e} })
				}), func(b any) Node {
				return PutMVar(lock, b)
			})
		}))
		return Bind(ForkNamed(body, "holder"), func(tv any) Node {
			tid := tv.(ThreadID)
			return Bind(Sleep(time.Millisecond), func(any) Node {
				return Bind(ThrowTo(tid, exc.ThreadKilled{}), func(any) Node {
					// The §5.2 safe-locking pattern must restore the lock.
					return TakeMVar(lock)
				})
			})
		})
	})
	res, err := rt.RunMain(main)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 100 {
		t.Fatalf("lock value = %v, want 100 (lock lost?)", res.Value)
	}
}

// TestParallelDeadlockDetection: all shards quiesce with threads
// parked on an MVar no one holds; the last-man-standing shard must
// deliver BlockedIndefinitely exactly as the serial detector.
func TestParallelDeadlockDetection(t *testing.T) {
	rt := NewRT(parOpts(4))
	main := Bind(NewEmptyMVar(), func(a any) Node {
		mv := a.(*MVar)
		return Bind(Fork(TakeMVar(mv)), func(any) Node { return TakeMVar(mv) })
	})
	res, err := rt.RunMain(main)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Exc.(exc.BlockedIndefinitely); !ok {
		t.Fatalf("got %+v", res)
	}
}

// TestParallelVirtualTimers: sleeping threads spread across shards must
// all fire when the last-man-standing shard advances virtual time.
func TestParallelVirtualTimers(t *testing.T) {
	rt := NewRT(parOpts(4))
	const sleepers = 12
	main := Bind(NewMVar(0), func(a any) Node {
		count := a.(*MVar)
		sleeper := func(d time.Duration) Node {
			return Bind(Sleep(d), func(any) Node {
				return Bind(TakeMVar(count), func(v any) Node { return PutMVar(count, v.(int)+1) })
			})
		}
		var spawn func(i int) Node
		spawn = func(i int) Node {
			if i == 0 {
				return Return(UnitValue)
			}
			return Bind(Fork(sleeper(time.Duration(i)*time.Millisecond)), func(any) Node { return spawn(i - 1) })
		}
		var wait func() Node
		wait = func() Node {
			return Bind(TakeMVar(count), func(v any) Node {
				n := v.(int)
				return Bind(PutMVar(count, n), func(any) Node {
					if n == sleepers {
						return Return(n)
					}
					return Bind(Sleep(time.Millisecond), func(any) Node { return wait() })
				})
			})
		}
		return Bind(spawn(sleepers), func(any) Node { return wait() })
	})
	res, err := rt.RunMain(main)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != sleepers {
		t.Fatalf("fired %v sleepers, want %d", res.Value, sleepers)
	}
	if rt.Stats().TimeAdvances == 0 {
		t.Fatal("expected virtual-time advances")
	}
}

// TestParallelExternalInterrupt converts an environment signal into an
// asynchronous exception while the runtime runs on 4 shards. The main
// thread waits until the signal is queued before it sleeps: a queued
// message holds the virtual clock, so the hour cannot pass first.
func TestParallelExternalInterrupt(t *testing.T) {
	rt := NewRT(parOpts(4))
	fired, sent := make(chan struct{}), make(chan struct{})
	main := Catch(
		Bind(primNode{func(rt *RT, t *Thread) (Node, bool) {
			close(fired)
			<-sent
			return unitRet, false
		}}, func(any) Node { return Sleep(time.Hour) }),
		func(e exc.Exception) Node { return Return(e) })
	go func() {
		<-fired
		rt.External(func(r *RT) { r.InterruptMain(exc.UserInterrupt{}) })
		close(sent)
	}()
	res, err := rt.RunMain(main)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Value.(exc.UserInterrupt); !ok {
		t.Fatalf("got %+v", res)
	}
}

// TestExternalFloodNeverBlocks: External rides shard 0's mailbox, so a
// flood never blocks its callers. Eight producers make 20 000 calls
// each from inside one step of the main thread — at one shard nothing
// drains the mailbox until they have all returned — and every callback
// then runs exactly once, on shard 0, in per-producer order.
func TestExternalFloodNeverBlocks(t *testing.T) {
	const producers, calls = 8, 20000
	for _, shards := range []int{1, 2} {
		rt := NewRT(parOpts(shards))
		// next[p] is the index of producer p's next callback; only
		// callbacks touch it, and RunMain's return publishes it to us.
		next := make([]int, producers)
		var ran, wrong atomic.Int64
		flood := primNode{func(*RT, *Thread) (Node, bool) {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						rt.External(func(r *RT) {
							if r.shardID != 0 || next[p] != i {
								wrong.Add(1)
							}
							next[p] = i + 1
							ran.Add(1)
						})
					}
				}(p)
			}
			returned := make(chan struct{})
			go func() { wg.Wait(); close(returned) }()
			select {
			case <-returned:
				return unitRet, false
			case <-time.After(30 * time.Second):
				return throwNode{exc.ErrorCall{Msg: "External blocked its caller"}}, false
			}
		}}
		var drained func() Node
		drained = func() Node {
			if ran.Load() == producers*calls {
				return Return(UnitValue)
			}
			return Bind(Yield(), func(any) Node { return drained() })
		}
		res, err := rt.RunMain(Bind(flood, func(any) Node { return Delay(drained) }))
		if err != nil || res.Exc != nil {
			t.Fatalf("shards=%d: %v %v", shards, err, res.Exc)
		}
		if n := wrong.Load(); n != 0 {
			t.Fatalf("shards=%d: %d callbacks ran off shard 0 or out of producer order", shards, n)
		}
		for p, n := range next {
			if n != calls {
				t.Fatalf("shards=%d: producer %d: %d of %d callbacks ran", shards, p, n, calls)
			}
		}
		if n := ran.Load(); n != producers*calls {
			t.Fatalf("shards=%d: %d callbacks ran, want %d", shards, n, producers*calls)
		}
	}
}

// TestParallelConsole: getChar readers parked across shards are woken
// in FIFO order by injected input.
func TestParallelConsole(t *testing.T) {
	rt := NewRT(parOpts(2))
	fired := make(chan struct{})
	main := Bind(NewEmptyMVar(), func(a any) Node {
		done := a.(*MVar)
		reader := Bind(GetChar(), func(ch any) Node { return PutMVar(done, ch) })
		return Bind(Fork(reader), func(any) Node {
			return Bind(primNode{func(rt *RT, t *Thread) (Node, bool) {
				close(fired)
				return unitRet, false
			}}, func(any) Node {
				return TakeMVar(done)
			})
		})
	})
	go func() {
		<-fired
		rt.External(func(r *RT) { r.InjectInput("q") })
	}()
	res, err := rt.RunMain(main)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 'q' {
		t.Fatalf("got %v", res.Value)
	}
}

// TestParallelPromiseWakeCrossShard pins a promise awaiter to shard 1
// and its settler to shard 0, so the settlement's committed wakeup
// crosses shards as a msgUnpark carrying an exception. For a rejection
// and for a cancellation the awaiter sees the exception raised at its
// await and is woken on its own shard, and exactly one KindAwait is
// recorded — by the settling shard, flagged FlagCancel only when the
// promise was cancelled.
func TestParallelPromiseWakeCrossShard(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		var want exc.Exception = exc.ErrorCall{Msg: "rejected"}
		if cancel {
			want = exc.PromiseCancelled{}
		}
		rec := obs.NewRecorder(1 << 10)
		opts := parOpts(2)
		opts.Observer = rec
		rt := NewRT(opts)
		var awaiter ThreadID
		main := Bind(NewPromiseNode("p"), func(a any) Node {
			p := a.(*Promise)
			return Bind(NewEmptyMVar(), func(b any) Node {
				got := b.(*MVar)
				await := Catch(AwaitPromise(p), func(e exc.Exception) Node { return PutMVar(got, e) })
				waiters := Lift(func() any {
					p.mu.Lock()
					defer p.mu.Unlock()
					return len(p.waiters)
				})
				// The settler yields until the awaiter has parked.
				var settle func() Node
				settle = func() Node {
					return Bind(waiters, func(n any) Node {
						if n.(int) == 0 {
							return Then(Yield(), Delay(settle))
						}
						if cancel {
							return CancelPromise(p)
						}
						return ResolvePromiseExc(p, want)
					})
				}
				return Bind(ForkOn(1, await, "awaiter"), func(tid any) Node {
					awaiter = tid.(ThreadID)
					return Then(ForkOn(0, Delay(settle), "settler"), TakeMVar(got))
				})
			})
		})
		res, err := rt.RunMain(main)
		if err != nil || res.Exc != nil {
			t.Fatalf("cancel=%v: %v %v", cancel, err, res.Exc)
		}
		if e, ok := res.Value.(exc.Exception); !ok || !e.Eq(want) {
			t.Fatalf("cancel=%v: awaiter raised %v, want %v", cancel, res.Value, want)
		}
		var awaits, unparks int
		for _, ev := range rec.Snapshot() {
			if ev.Thread != int64(awaiter) {
				continue
			}
			switch ev.Kind {
			case obs.KindAwait:
				awaits++
				if ev.Shard != 0 || (ev.Flags&obs.FlagCancel != 0) != cancel {
					t.Fatalf("cancel=%v: await event %+v", cancel, ev)
				}
			case obs.KindUnpark:
				unparks++
				if ev.Shard != 1 {
					t.Fatalf("cancel=%v: unpark on shard %d, want 1", cancel, ev.Shard)
				}
			}
		}
		if awaits != 1 || unparks != 1 {
			t.Fatalf("cancel=%v: %d await and %d unpark events, want 1 each", cancel, awaits, unparks)
		}
	}
}

// TestParallelStatsAggregate checks that Stats() sums per-shard
// counters and ShardStats exposes one entry per shard.
func TestParallelStatsAggregate(t *testing.T) {
	rt := NewRT(parOpts(4))
	main := Bind(NewMVar(0), func(a any) Node {
		mv := a.(*MVar)
		var spawn func(i int) Node
		spawn = func(i int) Node {
			if i == 0 {
				return Sleep(time.Millisecond)
			}
			return Bind(Fork(Bind(TakeMVar(mv), func(v any) Node { return PutMVar(mv, v) })), func(any) Node {
				return spawn(i - 1)
			})
		}
		return spawn(32)
	})
	if _, err := rt.RunMain(main); err != nil {
		t.Fatal(err)
	}
	if got := rt.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	per := rt.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats len = %d, want 4", len(per))
	}
	var sum Stats
	for _, s := range per {
		sum.Add(s)
	}
	agg := rt.Stats()
	if agg.Forks != sum.Forks || agg.Steps != sum.Steps {
		t.Fatalf("aggregate mismatch: %+v vs %+v", agg, sum)
	}
	if agg.Forks != 33 { // main + 32 workers
		t.Fatalf("Forks = %d, want 33", agg.Forks)
	}
}

// TestParallelSerialEquivalence runs a deterministic single-thread
// program on 1 and 4 shards; with no concurrency the observable result
// and console output must be identical.
func TestParallelSerialEquivalence(t *testing.T) {
	prog := func() Node {
		var loop func(i int) Node
		loop = func(i int) Node {
			if i == 0 {
				return Return(UnitValue)
			}
			return Bind(PutChar(rune('a'+i%26)), func(any) Node { return loop(i - 1) })
		}
		return loop(40)
	}
	rtSerial := NewRT(parOpts(1))
	resS, errS := rtSerial.RunMain(prog())
	rtPar := NewRT(parOpts(4))
	resP, errP := rtPar.RunMain(prog())
	if errS != nil || errP != nil {
		t.Fatal(errS, errP)
	}
	if resS.Exc != nil || resP.Exc != nil {
		t.Fatal(resS.Exc, resP.Exc)
	}
	if rtSerial.Output() != rtPar.Output() {
		t.Fatalf("output differs: %q vs %q", rtSerial.Output(), rtPar.Output())
	}
}

// TestParallelRealClock exercises the wall-clock path: cross-shard
// sleeps fire from per-shard heaps via syncRealClockShard.
func TestParallelRealClock(t *testing.T) {
	opts := parOpts(2)
	opts.Clock = RealClock
	rt := NewRT(opts)
	main := Bind(NewEmptyMVar(), func(a any) Node {
		done := a.(*MVar)
		return Bind(Fork(Bind(Sleep(2*time.Millisecond), func(any) Node { return PutMVar(done, 1) })), func(any) Node {
			return Bind(Sleep(time.Millisecond), func(any) Node { return TakeMVar(done) })
		})
	})
	res, err := rt.RunMain(main)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1 {
		t.Fatalf("got %+v", res)
	}
}

// TestParallelFuelExhausted: the engine-wide step budget must stop a
// divergent program.
func TestParallelFuelExhausted(t *testing.T) {
	opts := parOpts(2)
	opts.MaxSteps = 10_000
	rt := NewRT(opts)
	var spin func() Node
	spin = func() Node {
		return Bind(Return(UnitValue), func(any) Node { return spin() })
	}
	if _, err := rt.RunMain(spin()); err != ErrFuelExhausted {
		t.Fatalf("err = %v, want ErrFuelExhausted", err)
	}
}
