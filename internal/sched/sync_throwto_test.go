package sched_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
	"asyncexc/internal/sched"
)

// Corner cases of the §9 synchronous throwTo design.

func syncOpts() sched.Options {
	opts := sched.DefaultOptions()
	opts.SyncThrowTo = true
	return opts
}

func TestSyncThrowToToDeadThreadReturnsImmediately(t *testing.T) {
	main := sched.Bind(sched.Fork(sched.Return(1)), func(raw any) sched.Node {
		tid := raw.(sched.ThreadID)
		return seq(
			sched.Sleep(time.Millisecond), // child finishes
			sched.ThrowTo(tid, exc.Dyn{Tag: "X"}),
			sched.PutChar('d'),
		)
	})
	_, rt := run(t, syncOpts(), main)
	if rt.Output() != "d" {
		t.Fatalf("output %q", rt.Output())
	}
}

func TestSyncThrowToTargetFinishesWhileWaiting(t *testing.T) {
	// The target is masked and completes without ever unmasking; the
	// thrower must still be released ("throwTo to a finished thread
	// trivially succeeds", §5).
	mvNode := sched.NewEmptyMVar()
	main := sched.Bind(mvNode, func(raw any) sched.Node {
		ready := raw.(*sched.MVar)
		target := sched.Block(seq(
			sched.PutMVar(ready, 1),
			busy(5000),
			// finishes masked, pending exception undelivered
		))
		return sched.Bind(sched.Fork(target), func(rawT any) sched.Node {
			tid := rawT.(sched.ThreadID)
			return seq(
				sched.Then(sched.TakeMVar(ready), sched.ReturnUnit()),
				sched.ThrowTo(tid, exc.Dyn{Tag: "X"}), // parks: target masked
				sched.PutChar('r'),                    // released when the target dies
			)
		})
	})
	_, rt := run(t, syncOpts(), main)
	if rt.Output() != "r" {
		t.Fatalf("output %q", rt.Output())
	}
}

func TestSyncThrowToSelfDeliversImmediately(t *testing.T) {
	// §9: the synchronous version needs a special case for a thread
	// throwing to itself — it cannot wait for its own delivery.
	main := sched.Bind(sched.MyThreadID(), func(raw any) sched.Node {
		me := raw.(sched.ThreadID)
		return sched.Catch(
			sched.Then(sched.ThrowTo(me, exc.Dyn{Tag: "Me"}), sched.PutChar('x')),
			func(e exc.Exception) sched.Node { return sched.PutChar('c') })
	})
	_, rt := run(t, syncOpts(), main)
	if rt.Output() != "c" {
		t.Fatalf("output %q", rt.Output())
	}
}

func TestSyncThrowerInterruptedWithdrawsException(t *testing.T) {
	// A parked synchronous thrower that is itself interrupted
	// withdraws its in-flight exception: the target must NOT receive
	// it afterwards.
	mvNode := sched.NewEmptyMVar()
	main := sched.Bind(mvNode, func(raw any) sched.Node {
		ready := raw.(*sched.MVar)
		target := sched.Catch(
			sched.Block(seq(
				sched.PutMVar(ready, 1),
				busy(200000),
				sched.PutChar('t'), // target survives its masked region
				sched.Then(sched.Unblock(sched.ReturnUnit()), sched.PutChar('u')),
			)),
			func(e exc.Exception) sched.Node { return sched.PutChar('!') })
		return sched.Bind(sched.Fork(target), func(rawT any) sched.Node {
			tid := rawT.(sched.ThreadID)
			thrower := sched.Catch(
				sched.ThrowTo(tid, exc.Dyn{Tag: "X"}), // parks (target masked)
				func(e exc.Exception) sched.Node { return sched.PutChar('w') })
			return sched.Bind(sched.Fork(thrower), func(rawW any) sched.Node {
				wid := rawW.(sched.ThreadID)
				return seq(
					sched.Then(sched.TakeMVar(ready), sched.ReturnUnit()),
					// Yield (not sleep: the virtual clock cannot advance
					// while the target is busy) until the thrower has
					// parked on its synchronous throwTo.
					sched.Yield(), sched.Yield(), sched.Yield(),
					sched.ThrowTo(wid, exc.ThreadKilled{}),
					sched.Sleep(time.Millisecond), // drain: target finishes
				)
			})
		})
	})
	_, rt := run(t, syncOpts(), main)
	out := rt.Output()
	// 'w' = thrower interrupted; 't' and 'u' = target untouched; no '!'.
	if out != "wtu" && out != "twu" {
		t.Fatalf("output %q: the withdrawn exception must not reach the target", out)
	}
}

// TestSyncThrowReceiptEvents: each §9 receipt settles once, in the
// counters and in the event stream. One throw is delivered when its
// masked target unmasks, one is withdrawn when its parked thrower is
// killed, and the kill, a synchronous throw at a parked thread, is
// delivered at once: three receipts, two resolved with the thrower's
// await, one cancelled.
func TestSyncThrowReceiptEvents(t *testing.T) {
	rec := obs.NewRecorder(1 << 12)
	opts := syncOpts()
	opts.Observer = rec
	main := sched.Bind(sched.NewEmptyMVar(), func(raw any) sched.Node {
		ready := raw.(*sched.MVar)
		target := sched.Catch(
			sched.Then(sched.Block(seq(sched.PutMVar(ready, 1), busy(2000))), sched.Unblock(sched.ReturnUnit())),
			func(exc.Exception) sched.Node { return sched.ReturnUnit() })
		return sched.Bind(sched.Fork(target), func(raw any) sched.Node {
			tid := raw.(sched.ThreadID)
			delivered := sched.ThrowTo(tid, exc.Dyn{Tag: "delivered"})
			withdrawn := sched.Catch(sched.ThrowTo(tid, exc.Dyn{Tag: "withdrawn"}),
				func(exc.Exception) sched.Node { return sched.ReturnUnit() })
			return sched.Then(sched.TakeMVar(ready), sched.Then(sched.Fork(delivered),
				sched.Bind(sched.Fork(withdrawn), func(raw any) sched.Node {
					return seq(
						sched.Yield(), sched.Yield(), sched.Yield(), // both throwers park
						sched.ThrowTo(raw.(sched.ThreadID), exc.ThreadKilled{}),
						sched.Sleep(time.Millisecond), // the target unmasks and finishes
					)
				})))
		})
	})
	_, rt := run(t, opts, main)
	if st := rt.Stats(); st.PromisesCreated != 3 || st.PromisesResolved != 2 || st.PromisesCancelled != 1 || st.Awaits != 2 {
		t.Fatalf("receipts created %d resolved %d cancelled %d awaits %d, want 3/2/1/2",
			st.PromisesCreated, st.PromisesResolved, st.PromisesCancelled, st.Awaits)
	}
	var resolves, cancels, awaits int
	var caught []string
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case obs.KindPromiseResolve:
			resolves++
			if ev.Flags&obs.FlagCancel != 0 {
				cancels++
			}
		case obs.KindAwait:
			awaits++
		case obs.KindCatch:
			caught = append(caught, ev.Exc.ExceptionName())
		}
	}
	if resolves != 3 || cancels != 1 || awaits != 2 {
		t.Fatalf("promiseResolve %d (cancel %d), await %d: want 3 (1), 2", resolves, cancels, awaits)
	}
	if bad := obs.CheckInvariants(rec.Snapshot(), rec.Stats()); len(bad) > 0 {
		t.Fatalf("event stream: %v", bad)
	}
	if len(caught) != 2 || caught[0] != "ThreadKilled" || caught[1] != "Dyn:delivered" {
		t.Fatalf("caught %v: want the kill and the delivered throw, never the withdrawn one", caught)
	}
}

// TestSyncThrowerWithdrawRacesSteal: on two shards, synchronous
// throwers park on a victim that stays masked and runnable, and are
// then interrupted, so each withdrawal races the steals that move the
// victim between shards. A withdrawal only cancels the thrower's
// receipt; the victim's pending queue is touched by its owner alone,
// which drops the withdrawn entries when the victim finishes (run
// under -race: an edit of a pending queue another shard is stepping
// would be a data race). The run must complete: every thrower and the
// victim report to main.
// Whether a steal happens at all is up to the OS scheduling the second
// shard's goroutine, so the victim hands over the OS thread at every
// yield, and seeds run — at least 20 — until both a steal and an
// interrupted wait have been seen, up to a cap.
func TestSyncThrowerWithdrawRacesSteal(t *testing.T) {
	const throwers, minSeeds, maxSeeds = 8, 20, 2000
	var steals, interrupts uint64
	seed := int64(0)
	for ; seed < maxSeeds && (seed < minSeeds || steals == 0 || interrupts == 0); seed++ {
		opts := syncOpts()
		opts.Shards = 2
		opts.TimeSlice = 3
		opts.RandomSched = true
		opts.Seed = seed
		main := sched.Bind(sched.NewEmptyMVar(), func(raw any) sched.Node {
			done := raw.(*sched.MVar)
			victim := sched.BlockUninterruptible(sched.Then(yields(400), sched.PutMVar(done, "victim")))
			return sched.Bind(sched.Fork(victim), func(rawV any) sched.Node {
				vid := rawV.(sched.ThreadID)
				thrower := sched.Catch(
					sched.Then(sched.ThrowTo(vid, exc.Dyn{Tag: "X"}), sched.PutMVar(done, "released")),
					func(exc.Exception) sched.Node { return sched.PutMVar(done, "interrupted") })
				var fork func(i int, ids []sched.ThreadID) sched.Node
				fork = func(i int, ids []sched.ThreadID) sched.Node {
					if i == throwers {
						kills := []sched.Node{yields(int(seed % 5))}
						for _, id := range ids {
							kills = append(kills, sched.ThrowTo(id, exc.ThreadKilled{}))
						}
						for j := 0; j <= throwers; j++ {
							kills = append(kills, sched.TakeMVar(done))
						}
						return seq(kills...)
					}
					return sched.Bind(sched.Fork(thrower), func(rawW any) sched.Node {
						return fork(i+1, append(ids, rawW.(sched.ThreadID)))
					})
				}
				return fork(0, nil)
			})
		})
		res, rt := run(t, opts, main)
		if res.Exc != nil {
			t.Fatalf("seed %d: %v", seed, res.Exc)
		}
		st := rt.Stats()
		steals += st.Steals
		interrupts += st.Interrupts
	}
	t.Logf("%d seeds: %d steals, %d interrupted waits", seed, steals, interrupts)
	if steals == 0 || interrupts == 0 {
		t.Fatal("no steal raced a withdraw")
	}
}

// TestSyncThrowEitherDeliveredOrFails soaks §9's contract: a
// synchronous throwTo either returns, and the target receives the
// exception (or had already finished, §5), or raises, and the target
// never receives it. A thrower pinned to shard 0 throws inside Block to
// a masked target, while a killer kills the thrower after a
// seed-dependent number of yields, so the kill lands before, during and
// after the thrower's park and before or after its msgThrowTo is
// applied. Three layouts: the target on the thrower's shard with the
// killer on the other, where the claim and the withdrawal run on one
// goroutine; and the target on shard 1 with the killer on either, where
// they run on two.
func TestSyncThrowEitherDeliveredOrFails(t *testing.T) {
	for _, l := range []struct{ target, killer int }{{0, 1}, {1, 0}, {1, 1}} {
		t.Run(fmt.Sprintf("target=%d,killer=%d", l.target, l.killer), func(t *testing.T) {
			soakSyncThrowContract(t, l.target, l.killer)
		})
	}
}

func soakSyncThrowContract(t *testing.T, targetShard, killerShard int) {
	const seeds = 2000
	outcomes := map[string]int{}
	for seed := int64(0); seed < seeds; seed++ {
		opts := syncOpts()
		opts.Shards = 2
		opts.TimeSlice = 2
		opts.RandomSched = true
		opts.Seed = seed
		main := sched.Bind(sched.NewEmptyMVar(), func(raw any) sched.Node {
			thrDone := raw.(*sched.MVar)
			return sched.Bind(sched.NewEmptyMVar(), func(raw any) sched.Node {
				tgtDone := raw.(*sched.MVar)
				target := sched.Catch(
					sched.Then(sched.Block(yields(4)), sched.PutMVar(tgtDone, "clean")),
					func(exc.Exception) sched.Node { return sched.PutMVar(tgtDone, "received") })
				return sched.Bind(sched.ForkOn(targetShard, target, "target"), func(raw any) sched.Node {
					thrower := sched.Block(sched.Catch(
						sched.Then(sched.ThrowTo(raw.(sched.ThreadID), exc.Dyn{Tag: "X"}), sched.PutMVar(thrDone, "delivered")),
						func(exc.Exception) sched.Node { return sched.PutMVar(thrDone, "killed") }))
					return sched.Bind(sched.ForkOn(0, thrower, "thrower"), func(raw any) sched.Node {
						killer := sched.Then(yields(int(seed%5)), sched.ThrowTo(raw.(sched.ThreadID), exc.ThreadKilled{}))
						return sched.Then(sched.ForkOn(killerShard, killer, "killer"),
							sched.Bind(sched.TakeMVar(thrDone), func(thr any) sched.Node {
								return sched.Bind(sched.TakeMVar(tgtDone), func(tgt any) sched.Node {
									return sched.Return(thr.(string) + "/" + tgt.(string))
								})
							}))
					})
				})
			})
		})
		rt := sched.NewRT(opts)
		res, err := rt.RunMain(main)
		if err != nil || res.Exc != nil {
			t.Fatalf("seed %d: %v %v", seed, err, res.Exc)
		}
		outcomes[res.Value.(string)]++
	}
	t.Logf("%d seeds: %v", seeds, outcomes)
	if n := outcomes["killed/received"]; n > 0 {
		t.Fatalf("%d of %d seeds: the thrower's throwTo raised, yet the target received the exception", n, seeds)
	}
	if outcomes["killed/clean"] == 0 || outcomes["delivered/received"] == 0 {
		t.Fatalf("outcomes %v: the kill never raced the throw both ways", outcomes)
	}
}

// yields is n scheduler yields: a thread that stays runnable, and so
// stealable, throughout. Each yield also hands over the OS thread, so
// the other shard's worker gets to run — and steal — even when both
// shards share one CPU.
func yields(n int) sched.Node {
	gosched := sched.Lift(func() any { runtime.Gosched(); return nil })
	out := sched.ReturnUnit()
	for i := 0; i < n; i++ {
		out = sched.Then(gosched, sched.Then(sched.Yield(), out))
	}
	return out
}
