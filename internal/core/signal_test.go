package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
)

// --- Signal basics ---------------------------------------------------------

// TestSignalRunsHandlerAndResumes: a delivered signal runs the
// handler and then resumes the original continuation untouched — the
// target's in-progress computation completes with the right answer.
func TestSignalRunsHandlerAndResumes(t *testing.T) {
	var pings atomic.Int64
	prog := core.Bind(core.NewEmptyMVar[int](), func(res core.MVar[int]) core.IO[int] {
		return core.Bind(core.NewEmptyMVar[core.ThreadID](), func(ready core.MVar[core.ThreadID]) core.IO[int] {
			worker := core.WithSignalHandler("ping",
				func(s core.Signal) core.IO[core.Unit] {
					return core.Lift(func() core.Unit { pings.Add(1); return core.UnitValue })
				},
				// Announce only after the handler is installed, then spin
				// through enough unmasked redexes for delivery.
				core.Bind(core.MyThreadID(), func(tid core.ThreadID) core.IO[core.Unit] {
					return core.Then(core.Put(ready, tid),
						core.Then(core.ReplicateM_(200, core.Yield()), core.Put(res, 42)))
				}))
			return core.Then(core.Void(core.Fork(worker)),
				core.Bind(core.Take(ready), func(tid core.ThreadID) core.IO[int] {
					return core.Then(core.SignalTo(tid, core.Signal{Name: "ping"}),
						core.Take(res))
				}))
		})
	})
	sys := core.NewSystem(core.DefaultOptions())
	v, e, err := core.RunSystem(sys, prog)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != 42 {
		t.Fatalf("continuation corrupted: got %d", v)
	}
	if pings.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", pings.Load())
	}
	if st := sys.Stats(); st.SignalsDelivered != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSignalHandlerRunsMasked: the spliced handler executes under
// Masked (§9: it cannot be torn mid-flight), and the original mask
// state is restored when it returns.
func TestSignalHandlerRunsMasked(t *testing.T) {
	prog := core.Bind(core.NewEmptyMVar[core.MaskState](), func(inH core.MVar[core.MaskState]) core.IO[core.Pair[core.MaskState, core.MaskState]] {
		return core.Bind(core.NewEmptyMVar[core.MaskState](), func(after core.MVar[core.MaskState]) core.IO[core.Pair[core.MaskState, core.MaskState]] {
			return core.Bind(core.NewEmptyMVar[core.ThreadID](), func(ready core.MVar[core.ThreadID]) core.IO[core.Pair[core.MaskState, core.MaskState]] {
				worker := core.WithSignalHandler("probe",
					func(core.Signal) core.IO[core.Unit] {
						return core.Bind(core.GetMask(), func(m core.MaskState) core.IO[core.Unit] {
							return core.Put(inH, m)
						})
					},
					core.Bind(core.MyThreadID(), func(tid core.ThreadID) core.IO[core.Unit] {
						return core.Then(core.Put(ready, tid),
							core.Then(core.ReplicateM_(200, core.Yield()),
								core.Bind(core.GetMask(), func(m core.MaskState) core.IO[core.Unit] {
									return core.Put(after, m)
								})))
					}))
				return core.Then(core.Void(core.Fork(worker)),
					core.Bind(core.Take(ready), func(tid core.ThreadID) core.IO[core.Pair[core.MaskState, core.MaskState]] {
						return core.Then(core.SignalTo(tid, core.Signal{Name: "probe"}),
							core.Bind(core.Take(inH), func(h core.MaskState) core.IO[core.Pair[core.MaskState, core.MaskState]] {
								return core.Bind(core.Take(after), func(a core.MaskState) core.IO[core.Pair[core.MaskState, core.MaskState]] {
									return core.Return(core.MkPair(h, a))
								})
							}))
					}))
			})
		})
	})
	r, e, err := core.Run(prog)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if r.Fst != core.Masked {
		t.Fatalf("handler mask: want Masked, got %v", r.Fst)
	}
	if r.Snd != core.Unmasked {
		t.Fatalf("mask not restored after handler: %v", r.Snd)
	}
}

// TestSignalDeferredByMask: a signal aimed at a thread inside Block
// waits for the unmask — the handler must not fire in the masked
// region (the invariant the chaos soak checks via obs).
func TestSignalDeferredByMask(t *testing.T) {
	prog := core.Bind(core.NewEmptyMVar[string](), func(res core.MVar[string]) core.IO[string] {
		return core.Bind(core.NewEmptyMVar[core.Unit](), func(inBlock core.MVar[core.Unit]) core.IO[string] {
			worker := core.Bind(core.NewMVar("start"), func(cell core.MVar[string]) core.IO[core.Unit] {
				return core.WithSignalHandler("mark",
					func(core.Signal) core.IO[core.Unit] {
						return core.Bind(core.Take(cell), func(cur string) core.IO[core.Unit] {
							return core.Put(cell, cur+"+handler")
						})
					},
					core.Then(
						core.Block(core.Then(core.Put(inBlock, core.UnitValue),
							// Masked busy region: the signal must queue here.
							core.Then(core.ReplicateM_(100, core.Yield()),
								core.Bind(core.Take(cell), func(cur string) core.IO[core.Unit] {
									return core.Put(cell, cur+"+masked-done")
								})))),
						// Unmasked: the delivery point is at one of these
						// redexes, strictly after the masked region closed.
						core.Then(core.ReplicateM_(100, core.Yield()),
							core.Bind(core.Take(cell), func(final string) core.IO[core.Unit] {
								return core.Put(res, final)
							}))))
			})
			return core.Bind(core.Fork(worker), func(tid core.ThreadID) core.IO[string] {
				return core.Then(core.Take(inBlock),
					core.Then(core.SignalTo(tid, core.Signal{Name: "mark"}),
						core.Take(res)))
			})
		})
	})
	v, e, err := core.Run(prog)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != "start+masked-done+handler" {
		t.Fatalf("delivery order wrong: %q", v)
	}
}

// TestSignalWithoutHandlerDropped: no registration means the signal
// is discarded at its delivery point, not raised and not leaked.
func TestSignalWithoutHandlerDropped(t *testing.T) {
	prog := core.Bind(core.NewEmptyMVar[int](), func(res core.MVar[int]) core.IO[int] {
		worker := core.Then(core.ReplicateM_(100, core.Yield()), core.Put(res, 7))
		return core.Bind(core.Fork(worker), func(tid core.ThreadID) core.IO[int] {
			return core.Then(core.SignalTo(tid, core.Signal{Name: "nobody-home"}),
				core.Take(res))
		})
	})
	sys := core.NewSystem(core.DefaultOptions())
	v, e, err := core.RunSystem(sys, prog)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != 7 {
		t.Fatalf("worker corrupted: %d", v)
	}
	st := sys.Stats()
	if st.SignalsDropped != 1 || st.SignalsDelivered != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSignalQueuedWhileParked: there is no Interrupt rule for signals
// — a parked target keeps the signal queued and the handler runs only
// after it resumes.
func TestSignalQueuedWhileParked(t *testing.T) {
	var ran atomic.Bool
	prog := core.Bind(core.NewEmptyMVar[int](), func(gate core.MVar[int]) core.IO[bool] {
		worker := core.WithSignalHandler("late",
			func(core.Signal) core.IO[core.Unit] {
				return core.Lift(func() core.Unit { ran.Store(true); return core.UnitValue })
			},
			core.Void(core.Take(gate)))
		return core.Bind(core.Fork(worker), func(tid core.ThreadID) core.IO[bool] {
			return core.Then(core.Sleep(time.Millisecond), // let the worker park
				core.Then(core.SignalTo(tid, core.Signal{Name: "late"}),
					core.Then(core.Sleep(time.Millisecond),
						core.Bind(core.Lift(func() bool { return ran.Load() }), func(during bool) core.IO[bool] {
							if during {
								return core.ThrowErrorCall[bool]("handler fired while target was parked")
							}
							return core.Then(core.Put(gate, 1),
								core.Then(core.Sleep(time.Millisecond),
									core.Lift(func() bool { return ran.Load() })))
						}))))
		})
	})
	after, e, err := core.Run(prog)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if !after {
		t.Fatal("handler never ran after the target resumed")
	}
}

// --- The seeded signal-vs-throwTo race -------------------------------------

// TestSignalVsThrowToRace queues a signal and then a kill against the
// same victim while it is masked-uninterruptible (so both are pending
// simultaneously when it unmasks), seeded, serial and at 4 shards. The
// exception must always win the delivery point although it was queued
// second. Uncaught, the kill unwinds the victim completely: the handler
// never runs — in particular never on the unwound stack — and the
// discarded signal is visible in SignalsDropped. Caught inside the
// handler's scope, the kill leaves that scope intact, and the signal
// must then run its handler exactly once, after the catch.
func TestSignalVsThrowToRace(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	shapes := []struct {
		name string
		opts func(seed int64) core.Options
	}{
		{"serial", func(seed int64) core.Options {
			o := core.DefaultOptions()
			o.RandomSched = true
			o.Seed = seed
			o.TimeSlice = 3
			return o
		}},
		{"shards4", func(seed int64) core.Options {
			o := core.ParallelOptions(4)
			o.RandomSched = true
			o.Seed = seed
			o.TimeSlice = 3
			return o
		}},
	}
	for _, shape := range shapes {
		for _, caught := range []bool{false, true} {
			for seed := 0; seed < seeds; seed++ {
				name := fmt.Sprintf("%s caught=%v seed=%d", shape.name, caught, seed)
				runSignalVsThrowTo(t, name, shape.opts(int64(seed)), caught)
			}
		}
	}
}

func runSignalVsThrowTo(t *testing.T, name string, opts core.Options, caught bool) {
	var handlerRuns atomic.Int64
	var inCatch, handlerAfterCatch, survived atomic.Bool
	sys := core.NewSystem(opts)
	prog := core.Bind(core.NewEmptyMVar[core.ThreadID](), func(ready core.MVar[core.ThreadID]) core.IO[core.Unit] {
		// Uninterruptible park: both the signal and the exception queue
		// while we sleep, and race at the unmask that follows.
		body := core.Then(core.BlockUninterruptible(
			core.Bind(core.MyThreadID(), func(tid core.ThreadID) core.IO[core.Unit] {
				return core.Then(core.Put(ready, tid), core.Sleep(10*time.Millisecond))
			})),
			core.Then(core.ReplicateM_(100, core.Yield()),
				core.Lift(func() core.Unit { survived.Store(true); return core.UnitValue })))
		if caught {
			body = core.Catch(body, func(core.Exception) core.IO[core.Unit] {
				inCatch.Store(true)
				return core.ReplicateM_(100, core.Yield())
			})
		}
		victim := core.WithSignalHandler("doomed",
			func(core.Signal) core.IO[core.Unit] {
				return core.Lift(func() core.Unit {
					handlerRuns.Add(1)
					handlerAfterCatch.Store(inCatch.Load())
					return core.UnitValue
				})
			}, body)
		return core.Then(core.Void(core.Fork(victim)),
			core.Bind(core.Take(ready), func(tid core.ThreadID) core.IO[core.Unit] {
				return core.Then(core.SignalTo(tid, core.Signal{Name: "doomed"}),
					core.Then(core.ThrowTo(tid, exc.ThreadKilled{}),
						core.Sleep(50*time.Millisecond)))
			}))
	})
	_, e, err := core.RunSystem(sys, prog)
	if err != nil || e != nil {
		t.Fatalf("%s: %v %v", name, err, e)
	}
	st := sys.Stats()
	if survived.Load() {
		t.Fatalf("%s: exception did not win: the body ran past the unmask", name)
	}
	if !caught {
		if st.Killed != 1 {
			t.Fatalf("%s: victim not killed: %+v", name, st)
		}
		if handlerRuns.Load() != 0 || st.SignalsDelivered != 0 {
			t.Fatalf("%s: handler ran despite pending exception: %+v", name, st)
		}
		if st.SignalsDropped == 0 {
			t.Fatalf("%s: dropped signal not accounted: %+v", name, st)
		}
		return
	}
	if !inCatch.Load() || st.Killed != 0 {
		t.Fatalf("%s: kill not caught (caught=%v killed=%d)", name, inCatch.Load(), st.Killed)
	}
	if handlerRuns.Load() != 1 || st.SignalsDelivered != 1 || st.SignalsDropped != 0 {
		t.Fatalf("%s: handler ran %d times, want once: %+v", name, handlerRuns.Load(), st)
	}
	if !handlerAfterCatch.Load() {
		t.Fatalf("%s: handler ran before the exception was caught", name)
	}
}
