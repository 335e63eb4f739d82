package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"asyncexc/internal/actor"
	"asyncexc/internal/bench"
	"asyncexc/internal/broker"
	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/iomgr"
	"asyncexc/internal/obs"
	"asyncexc/internal/resilience"
	"asyncexc/internal/sched"
	"asyncexc/internal/supervise"
)

// The isolated unit costs of a traced run: tight loops over each
// module's public functions, in a child of their own, with fixed
// iteration counts. They are the "isolated op" column of the ledger.
// Nothing here looks inside a module; where internal/bench already has
// the loop (H1, P2), it is called instead of rewritten.

// meter is what timed measured: per-op wall time and interpreter steps.
type meter struct{ ns, steps float64 }

// timed runs body n times inside a running system and stores the
// per-op cost. Steps are exact on the serial engine.
func timed(out *meter, n int, body func() core.IO[core.Unit]) core.IO[core.Unit] {
	return core.Bind(core.SchedStats(), func(s0 sched.Stats) core.IO[core.Unit] {
		t0 := nowNs()
		return core.Then(core.ReplicateM_(n, core.Delay(body)), core.Bind(core.SchedStats(), func(s1 sched.Stats) core.IO[core.Unit] {
			out.ns = float64(nowNs()-t0) / float64(n)
			out.steps = float64(s1.Steps-s0.Steps) / float64(n)
			return core.Return(core.UnitValue)
		}))
	})
}

// mustRun runs prog to completion on a fresh real-clock system with
// the given shard count; a unit cost that cannot run is a broken
// benchmark, not a number.
func mustRun(shards int, prog core.IO[core.Unit]) {
	opts := core.RealTimeOptions()
	opts.Shards = shards
	if _, e, err := core.RunSystem(core.NewSystem(opts), prog); err != nil || e != nil {
		fatalf("unit cost: %v %v", e, err)
	}
}

// loop measures body n times on the serial engine.
func loop(n int, body func() core.IO[core.Unit]) meter {
	var m meter
	mustRun(1, timed(&m, n, body))
	return m
}

// overshootUs runs late n times — an action that should take budget —
// and returns the median excess in µs.
func overshootUs(n int, budget time.Duration, late core.IO[core.Unit]) float64 {
	over := make([]float64, 0, n)
	mustRun(1, core.ReplicateM_(n, core.Bind(core.Lift(nowNs), func(t0 int64) core.IO[core.Unit] {
		return core.Then(late, lift(func() { over = append(over, float64(nowNs()-t0-int64(budget))/1e3) }))
	})))
	return median(over)
}

var unit = core.Return(core.UnitValue)

func parkForever() core.IO[core.Unit] {
	return core.Bind(core.NewEmptyMVar[core.Unit](), func(never core.MVar[core.Unit]) core.IO[core.Unit] { return core.Take(never) })
}

// mvarRoundTrip is a put/take ping-pong with a consumer forked onto
// the last shard: one park and one wake per round.
func mvarRoundTrip(shards, n int) meter {
	var m meter
	mustRun(shards, core.Bind(core.NewEmptyMVar[int](), func(ping core.MVar[int]) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[int](), func(pong core.MVar[int]) core.IO[core.Unit] {
			consumer := core.Forever(core.Bind(core.Take(ping), func(v int) core.IO[core.Unit] { return core.Put(pong, v) }))
			return core.Then(core.Void(core.ForkOn(shards-1, consumer, "consumer")),
				timed(&m, n, func() core.IO[core.Unit] { return core.Then(core.Put(ping, 1), core.Void(core.Take(pong))) }))
		})
	}))
	return m
}

// doNoop is the external-event door: goroutine → RT.External → unpark.
// With sleeper, one other thread keeps a 25 ms timer pending — defect
// (b) in README.md.
func doNoop(n int, sleeper bool) meter {
	var m meter
	noop := func() core.IO[core.Unit] {
		return iomgr.Do("noop", func() (core.Unit, error) { return core.UnitValue, nil })
	}
	prog := timed(&m, n, noop)
	if sleeper {
		prog = core.Then(core.Void(core.Fork(core.Forever(core.Sleep(probeDeadline)))), prog)
	}
	mustRun(1, prog)
	return m
}

// connEcho exchanges 16 bytes with a plain Go echo server n times over
// loopback: through iomgr from a green thread, or on raw net.
func connEcho(n int, raw bool) float64 {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("unit cost: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	msg := []byte("0123456789abcdef")
	if raw {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			fatalf("unit cost: %v", err)
		}
		defer c.Close()
		buf := make([]byte, len(msg))
		t0 := nowNs()
		for range n {
			if _, err := c.Write(msg); err != nil {
				fatalf("unit cost: %v", err)
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				fatalf("unit cost: %v", err)
			}
		}
		return float64(nowNs()-t0) / float64(n)
	}
	var m meter
	mustRun(1, core.Bind(iomgr.Dial("tcp", l.Addr().String()), func(c *iomgr.Conn) core.IO[core.Unit] {
		return core.Finally(timed(&m, n, func() core.IO[core.Unit] {
			return core.Then(core.Void(c.Write(msg)), core.Void(c.Read(len(msg))))
		}), c.Close())
	}))
	return m.ns
}

// ioCancel kills a thread parked in a cancellable I/O call: fork,
// throwTo, cancel hook, unwinding.
func ioCancel(n int) float64 {
	return loop(n, func() core.IO[core.Unit] {
		ch := make(chan struct{})
		var once sync.Once
		blocked := iomgr.DoCancel("block",
			func() (core.Unit, error) { <-ch; return core.UnitValue, nil },
			func() { once.Do(func() { close(ch) }) }, nil)
		return core.Bind(core.NewEmptyMVar[core.Unit](), func(done core.MVar[core.Unit]) core.IO[core.Unit] {
			victim := core.Finally(core.Void(core.Try(blocked)), core.Put(done, core.UnitValue))
			return core.Bind(core.Fork(victim), func(vid core.ThreadID) core.IO[core.Unit] {
				return core.Seq(core.Yield(), core.ThrowTo(vid, exc.ThreadKilled{}), core.Take(done))
			})
		})
	}).ns
}

// The admission stack as httpd composes it: bulkhead, breaker, deadline.
func resilienceCosts(n int) (stack, deadline, bulkhead, breaker meter) {
	withDeadline := func(op core.IO[core.Unit]) core.IO[core.Unit] {
		return resilience.WithDeadline(resilience.NoDeadline(), time.Hour, func(resilience.Deadline) core.IO[core.Unit] { return op })
	}
	mustRun(1, core.Bind(resilience.NewBulkhead(resilience.BulkheadConfig{Name: "unit", Capacity: 64, MaxWaiting: 16}), func(bh *resilience.Bulkhead) core.IO[core.Unit] {
		return core.Bind(resilience.NewBreaker(resilience.BreakerConfig{Name: "unit", FailureThreshold: 1 << 30}), func(b *resilience.Breaker) core.IO[core.Unit] {
			return core.Seq(
				timed(&stack, n, func() core.IO[core.Unit] { return resilience.Enter(bh, resilience.Guard(b, withDeadline(unit))) }),
				timed(&deadline, n, func() core.IO[core.Unit] { return withDeadline(unit) }),
				timed(&bulkhead, n, func() core.IO[core.Unit] { return resilience.Enter(bh, unit) }),
				timed(&breaker, n, func() core.IO[core.Unit] { return resilience.Guard(b, unit) }),
			)
		})
	}))
	return
}

// childStartExit starts a Temporary child that exits at once.
func childStartExit(n int) float64 {
	var m meter
	spec := supervise.Spec{Name: "unit", Strategy: supervise.OneForOne, Intensity: supervise.Intensity{MaxRestarts: -1}}
	mustRun(1, supervise.WithSupervisor(spec, func(sup *supervise.Supervisor) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[core.Unit](), func(done core.MVar[core.Unit]) core.IO[core.Unit] {
			i := 0
			return timed(&m, n, func() core.IO[core.Unit] {
				i++
				return core.Then(sup.StartChild(supervise.ChildSpec{
					ID:      fmt.Sprintf("c%d", i),
					Start:   func() core.IO[core.Unit] { return core.Put(done, core.UnitValue) },
					Restart: supervise.Temporary,
				}), core.Take(done))
			})
		})
	}))
	return m.ns
}

type echoMsg struct {
	n     int
	reply actor.ReplyTo[int]
}

func actorCosts(n int) (sendReceive, call, sendAllPerMsg float64) {
	var sr, cl, sa meter
	batch := make([]int, brokerBatch)
	echo := actor.Def[echoMsg]{OnMessage: func(m echoMsg) core.IO[core.Unit] { return core.Void(m.reply.Reply(m.n)) }}
	mustRun(1, core.Bind(actor.NewMailbox[int]("unit"), func(mb *actor.Mailbox[int]) core.IO[core.Unit] {
		return core.Bind(actor.Spawn(actor.NewSystem(nil), echo), func(ref actor.Ref[echoMsg]) core.IO[core.Unit] {
			return core.Seq(
				timed(&sr, n, func() core.IO[core.Unit] { return core.Then(mb.Send(1), core.Void(mb.Receive())) }),
				timed(&cl, n, func() core.IO[core.Unit] {
					return core.Void(actor.Call(ref, resilience.NoDeadline(), time.Hour,
						func(rt actor.ReplyTo[int], _ resilience.Deadline) echoMsg { return echoMsg{1, rt} }))
				}),
				timed(&sa, n/brokerBatch+1, func() core.IO[core.Unit] { return core.Then(mb.SendAll(batch), core.Void(mb.ReceiveAll())) }),
			)
		})
	}))
	return sr.ns, cl.ns, sa.ns / brokerBatch
}

// brokerRig wires one topic to subs subscribers whose handler is
// onBatch, then runs body with the topic.
func brokerRig(shards, subs int, onBatch func([]broker.Event) core.IO[core.Unit], body func(actor.Ref[broker.Cmd]) core.IO[core.Unit]) {
	asys := actor.NewSystem(nil)
	mustRun(shards, core.Bind(broker.NewTopic(asys, "unit"), func(tp broker.Topic) core.IO[core.Unit] {
		wire := core.Void(core.Fork(core.Void(core.Try(tp.Spec.Start()))))
		for si := range subs {
			id := fmt.Sprintf("s%d", si)
			wire = core.Then(wire, core.Bind(broker.NewSubscriber(asys, id, onBatch), func(sb broker.Subscriber) core.IO[core.Unit] {
				return core.Then(core.Void(core.Fork(core.Void(core.Try(sb.Spec.Start())))), broker.Subscribe(tp.Ref, id, sb.Ref))
			}))
		}
		return core.Then(wire, body(tp.Ref))
	}))
}

// brokerIdleUs publishes single events into an idle two-shard broker
// and returns the median publish→handle time in µs.
func brokerIdleUs(n int) float64 {
	lat := make([]float64, 0, n)
	var handled core.MVar[int64]
	brokerRig(2, 1,
		func([]broker.Event) core.IO[core.Unit] {
			return core.Bind(core.Lift(nowNs), func(t int64) core.IO[core.Unit] { return core.Put(handled, t) })
		},
		func(topic actor.Ref[broker.Cmd]) core.IO[core.Unit] {
			return core.Bind(core.NewEmptyMVar[int64](), func(mv core.MVar[int64]) core.IO[core.Unit] {
				handled = mv
				return core.ReplicateM_(n, core.Bind(core.Lift(nowNs), func(t0 int64) core.IO[core.Unit] {
					return core.Then(broker.Publish(topic, []broker.Event{{Topic: "unit", Seq: 1}}),
						core.Bind(core.Take(handled), func(t1 int64) core.IO[core.Unit] {
							lat = append(lat, float64(t1-t0)/1e3)
							return core.Sleep(time.Millisecond)
						}))
				}))
			})
		})
	return median(lat)
}

// brokerFanoutNs pushes batches through one topic and four subscribers
// on the serial engine: wall time per delivery.
func brokerFanoutNs(batches int) float64 {
	var delivered int
	want := batches * brokerBatch * brokerSubs
	var ns float64
	evs := make([]broker.Event, brokerBatch)
	brokerRig(1, brokerSubs,
		func(evs []broker.Event) core.IO[core.Unit] { return lift(func() { delivered += len(evs) }) },
		func(topic actor.Ref[broker.Cmd]) core.IO[core.Unit] {
			t0 := nowNs()
			return core.Then(core.ReplicateM_(batches, broker.Publish(topic, evs)),
				core.Then(core.IterateUntil(core.Then(core.Yield(), core.Lift(func() bool { return delivered >= want }))),
					lift(func() { ns = float64(nowNs()-t0) / float64(want) })))
		})
	return ns
}

func obsStageNs(n int) float64 {
	log := obs.NewRecorder(0).ShardLog(0)
	t0 := nowNs()
	for i := range n {
		log.Stage(obs.KindPark, int64(i), 0, 1, 0, uint64(i), 0, 0)
	}
	return float64(nowNs()-t0) / float64(n)
}

// unitCosts measures every isolated unit cost; scale shrinks the
// iteration counts for the smoke test.
func unitCosts(scale float64) map[string]float64 {
	n := func(full int) int { return max(8, int(float64(full)*scale)) }
	u := map[string]float64{}
	perSec := func(rate float64) float64 { return 1e9 / rate }
	// withSteps also keeps the op's interpreter steps, under name.steps,
	// for the ledger's net-of-steps rows; only declared names are printed.
	withSteps := func(name string, m meter) { u[name], u[name+".steps"] = m.ns, m.steps }

	u["sched.step_ns"] = perSec(bench.EmptyLoopRate(1, 50, n(3_000_000)))
	withSteps("sched.fork_exit_ns", loop(n(30_000), func() core.IO[core.Unit] { return core.Then(core.Void(core.Fork(unit)), core.Yield()) }))
	withSteps("sched.mvar_roundtrip_ns", mvarRoundTrip(1, n(30_000)))
	u["sched.mvar_roundtrip_xshard_ns"] = mvarRoundTrip(2, n(10_000)).ns
	rate, _ := bench.ThrowToRate(1, n(20_000))
	u["sched.throwto_roundtrip_ns"] = perSec(rate)
	rate, _ = bench.ThrowToRate(2, n(10_000))
	u["sched.throwto_roundtrip_xshard_ns"] = perSec(rate)
	u["sched.await_roundtrip_ns"] = perSec(bench.AwaitRoundTripRate(1, n(20_000)))
	withSteps("sched.timer_arm_cancel_ns", loop(n(20_000), func() core.IO[core.Unit] { return core.Void(core.Timeout(time.Hour, unit)) }))
	u["sched.sleep_overshoot_us"] = overshootUs(n(40), 2*time.Millisecond, core.Sleep(2*time.Millisecond))
	withSteps("sched.idle_wake_pending_timer_ns", doNoop(n(5_000), true))

	either := loop(n(20_000), func() core.IO[core.Unit] {
		return core.Void(core.EitherIO(core.Return(1), core.Then(parkForever(), core.Return(2))))
	})
	u["core.either_ns"], u["core.either_steps"] = either.ns, either.steps
	u["core.bracket_ns"] = loop(n(50_000), func() core.IO[core.Unit] {
		return core.Bracket(unit, func(core.Unit) core.IO[core.Unit] { return unit }, func(core.Unit) core.IO[core.Unit] { return unit })
	}).ns
	u["core.timeout_expire_overshoot_us"] = overshootUs(n(40), 2*time.Millisecond, core.Void(core.Timeout(2*time.Millisecond, parkForever())))
	u["core.speculate3_ns"] = perSec(bench.FanoutPromiseRate(1, n(5_000)))

	withSteps("iomgr.do_noop_ns", doNoop(n(5_000), false))
	u["iomgr.conn_echo_ns"] = connEcho(n(3_000), false)
	u["iomgr.conn_echo_raw_ns"] = connEcho(n(3_000), true)
	u["iomgr.cancel_ns"] = ioCancel(n(3_000))

	u["conc.qsem_ns"] = func() float64 {
		var m meter
		mustRun(1, core.Bind(conc.NewQSem(1), func(q conc.QSem) core.IO[core.Unit] {
			return timed(&m, n(30_000), func() core.IO[core.Unit] { return core.Then(q.Wait(), q.Signal()) })
		}))
		return m.ns
	}()
	u["conc.chan_roundtrip_ns"] = func() float64 {
		var m meter
		mustRun(1, core.Bind(conc.NewChan[int](), func(a conc.Chan[int]) core.IO[core.Unit] {
			return core.Bind(conc.NewChan[int](), func(b conc.Chan[int]) core.IO[core.Unit] {
				echo := core.Forever(core.Bind(a.Read(), b.Write))
				return core.Then(core.Void(core.Fork(echo)),
					timed(&m, n(20_000), func() core.IO[core.Unit] { return core.Then(a.Write(1), core.Void(b.Read())) }))
			})
		}))
		return m.ns
	}()

	stack, deadline, bulkhead, breaker := resilienceCosts(n(10_000))
	u["resilience.stack_ns"], u["resilience.stack_steps"] = stack.ns, stack.steps
	u["resilience.deadline_ns"], u["resilience.bulkhead_ns"], u["resilience.breaker_ns"] = deadline.ns, bulkhead.ns, breaker.ns
	u["resilience.deadline_overshoot_us"] = overshootUs(n(40), 2*time.Millisecond, core.Void(core.Try(
		resilience.WithDeadline(resilience.NoDeadline(), 2*time.Millisecond, func(resilience.Deadline) core.IO[core.Unit] { return parkForever() }))))

	u["supervise.child_start_exit_ns"] = childStartExit(n(5_000))
	u["actor.send_receive_ns"], u["actor.call_roundtrip_ns"], u["actor.sendall_ns_per_msg"] = actorCosts(n(20_000))
	u["broker.publish_to_handle_idle_us"] = brokerIdleUs(n(100))
	u["broker.fanout_ns_per_delivery"] = brokerFanoutNs(n(128))
	u["obs.stage_ns"] = obsStageNs(n(2_000_000))
	return u
}

// unitsMain is the child of a traced run that measures the unit costs.
func unitsMain(out *json.Encoder, scale float64) int {
	if err := out.Encode(unitCosts(scale)); err != nil {
		fmt.Fprintln(os.Stderr, "units:", err)
		return 1
	}
	return 0
}
