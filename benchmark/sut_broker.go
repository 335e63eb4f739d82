package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/actor"
	"asyncexc/internal/broker"
	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/iomgr"
)

// brokerSUT is broker-fanout: no sockets, the parallel engine on two
// shards, brokerTopics topics with brokerSubs subscribers each and one
// publisher per topic sending batches of brokerBatch events. A
// publisher holds brokerCredits credits and gets one back when all
// subscribers have handled a batch, so latency measures the path and
// not an unbounded queue. An op is one event handled by one subscriber.
//
// The kill probe forks a canary on the other shard, parked in a mailbox
// receive under Finally, and throws at it: a cross-shard throwTo.
type brokerSUT struct {
	sp  spec
	run *running

	startGate chan struct{}
	wired     chan struct{}
	halt      atomic.Bool
	samples   sampler

	published, delivered atomic.Int64 // events sent; events handled, over all subscribers
	probeOps             atomic.Int64
	misordered           atomic.Int64 // events that were not the subscriber's next sequence number
	canaryReleases       atomic.Int64
	drained              bool

	mu sync.Mutex
	// Traced runs: per topic and batch number, when the Publish call
	// began and returned; and when sampled events were handled.
	calls   [brokerTopics][][2]int64
	handled []handledStamp
}

type handledStamp struct {
	topic int
	seq   uint64
	at    int64
}

func newBrokerSUT(sp spec) *brokerSUT {
	s := &brokerSUT{sp: sp, startGate: make(chan struct{}), wired: make(chan struct{})}
	asys := actor.NewSystem(nil)
	prog := core.Delay(func() core.IO[core.Unit] {
		var topics [brokerTopics]actor.Ref[broker.Cmd]
		var credits [brokerTopics]conc.QSem
		setup := core.Return(core.UnitValue)
		for ti := range brokerTopics {
			setup = core.Then(setup, core.Bind(conc.NewQSem(brokerCredits), func(sem conc.QSem) core.IO[core.Unit] {
				credits[ti] = sem
				return core.Bind(broker.NewTopic(asys, fmt.Sprintf("t%d", ti)), func(tp broker.Topic) core.IO[core.Unit] {
					topics[ti] = tp.Ref
					wire := core.Void(core.ForkOn(ti, core.Void(core.Try(tp.Spec.Start())), "topic"))
					var handledHere atomic.Int64 // events of this topic handled, over its subscribers
					for si := range brokerSubs {
						id := fmt.Sprintf("t%d-s%d", ti, si)
						wire = core.Then(wire, core.Bind(
							broker.NewSubscriber(asys, id, s.subscriber(ti, sem, &handledHere)),
							func(sb broker.Subscriber) core.IO[core.Unit] {
								return core.Then(core.Void(core.ForkOn(ti+si, core.Void(core.Try(sb.Spec.Start())), id)),
									broker.Subscribe(tp.Ref, id, sb.Ref))
							}))
					}
					return wire
				})
			}))
		}
		pubsDone := core.NewEmptyMVar[core.Unit]()
		return core.Bind(pubsDone, func(done core.MVar[core.Unit]) core.IO[core.Unit] {
			forkAll := core.Delay(func() core.IO[core.Unit] {
				io := core.Void(core.ForkOn(0, s.prober(done), "prober"))
				for ti := range brokerTopics {
					io = core.Then(io, core.Void(core.ForkOn(ti+1, s.publisher(ti, topics[ti], credits[ti], done), fmt.Sprintf("pub%d", ti))))
				}
				return io
			})
			return core.Seq(
				setup,
				lift(func() { close(s.wired) }),
				core.Void(iomgr.Do("start-gate", func() (core.Unit, error) { <-s.startGate; return core.UnitValue, nil })),
				forkAll,
				core.ReplicateM_(brokerTopics+1, core.Take(done)),
				s.drain(5000),
			)
		})
	})
	opts := core.RealTimeOptions()
	opts.Shards = 2
	s.run = launch(opts, prog)
	select {
	case <-s.wired:
	case <-s.run.done: // the driver hears about it through exited()
	}
	return s
}

// subscriber builds one subscriber's batch handler: count, check the
// sequence, sample latency, and hand credits back to the publisher.
func (s *brokerSUT) subscriber(topic int, credit conc.QSem, handledHere *atomic.Int64) func([]broker.Event) core.IO[core.Unit] {
	var next uint64 = 1 // touched only by this subscriber's handler
	const perBatch = brokerBatch * brokerSubs
	return func(evs []broker.Event) core.IO[core.Unit] {
		return core.Delay(func() core.IO[core.Unit] {
			now := nowNs()
			for _, e := range evs {
				if e.Seq != next {
					s.misordered.Add(1)
				}
				next = e.Seq + 1
				if e.Payload == "" {
					continue
				}
				sent, err := strconv.ParseInt(e.Payload, 10, 64)
				if err != nil {
					s.misordered.Add(1)
					continue
				}
				s.samples.addLat(float64(now-sent) / 1e3)
				if s.sp.Trace {
					s.mu.Lock()
					s.handled = append(s.handled, handledStamp{topic, e.Seq, now})
					s.mu.Unlock()
				}
			}
			n := int64(len(evs))
			s.delivered.Add(n)
			after := handledHere.Add(n)
			return core.ReplicateM_(int(after/perBatch-(after-n)/perBatch), credit.Signal())
		})
	}
}

func (s *brokerSUT) publisher(ti int, ref actor.Ref[broker.Cmd], credit conc.QSem, done core.MVar[core.Unit]) core.IO[core.Unit] {
	name := fmt.Sprintf("t%d", ti)
	var loop func(next uint64) core.IO[core.Unit]
	loop = func(next uint64) core.IO[core.Unit] {
		if s.halt.Load() {
			return core.Put(done, core.UnitValue)
		}
		return core.Then(credit.Wait(), core.Delay(func() core.IO[core.Unit] {
			evs := make([]broker.Event, brokerBatch)
			t0 := nowNs()
			for i := range evs {
				evs[i] = broker.Event{Topic: name, Seq: next + uint64(i)}
				if evs[i].Seq%brokerSample == 0 {
					evs[i].Payload = strconv.FormatInt(t0, 10)
				}
			}
			s.published.Add(brokerBatch)
			publish := broker.Publish(ref, evs)
			if s.sp.Trace {
				publish = core.Then(publish, lift(func() {
					s.mu.Lock()
					s.calls[ti] = append(s.calls[ti], [2]int64{t0, nowNs()})
					s.mu.Unlock()
				}))
			}
			return core.Then(publish, core.Delay(func() core.IO[core.Unit] { return loop(next + brokerBatch) }))
		}))
	}
	return core.Delay(func() core.IO[core.Unit] { return loop(1) })
}

// prober throws at a fresh canary every brokerProbeGap.
func (s *brokerSUT) prober(done core.MVar[core.Unit]) core.IO[core.Unit] {
	var loop func() core.IO[core.Unit]
	loop = func() core.IO[core.Unit] {
		if s.halt.Load() {
			return core.Put(done, core.UnitValue)
		}
		return core.Seq(s.probe(), core.Sleep(brokerProbeGap), core.Delay(loop))
	}
	return core.Delay(loop)
}

func (s *brokerSUT) probe() core.IO[core.Unit] {
	return core.Bind(actor.NewMailbox[int]("canary"), func(mb *actor.Mailbox[int]) core.IO[core.Unit] {
		return killProbe(
			func(canary core.IO[core.Unit]) core.IO[core.ThreadID] { return core.ForkOn(1, canary, "canary") },
			func(release core.IO[core.Unit]) core.IO[core.Unit] {
				return core.Finally(core.Void(mb.Receive()), release)
			},
			&s.canaryReleases, &s.probeOps, &s.samples)
	})
}

// drain waits, for at most tries milliseconds, until every published
// event has reached every subscriber.
func (s *brokerSUT) drain(tries int) core.IO[core.Unit] {
	return core.Delay(func() core.IO[core.Unit] {
		s.drained = s.delivered.Load() == s.published.Load()*brokerSubs
		if s.drained || tries == 0 {
			return core.Return(core.UnitValue)
		}
		return core.Then(core.Sleep(time.Millisecond), s.drain(tries-1))
	})
}

func (s *brokerSUT) ready() ready         { return ready{} }
func (s *brokerSUT) start()               { close(s.startGate) }
func (s *brokerSUT) exited() <-chan error { return s.run.died }
func (s *brokerSUT) snapshot() snapshot   { return liveSnapshot(s.run.sys, s.run.done) }

func (s *brokerSUT) tick() tick {
	s.samples.cut()
	return takeTick(s.delivered.Load(), s.probeOps.Load())
}

func (s *brokerSUT) stop() final {
	f := final{Samples: s.samples.summary()}
	s.halt.Store(true)
	<-s.run.done
	f.Attempted = s.delivered.Load() + s.probeOps.Load()
	check := f.check
	check(s.run.err == nil, "runtime ended with: %v", s.run.err)
	f.Failed += s.misordered.Load()
	check(s.misordered.Load() == 0, "%d events arrived out of order, twice, or after a gap", s.misordered.Load())
	check(s.drained, "exactly-once: %d events published to %d subscribers each, %d handled", s.published.Load(), brokerSubs, s.delivered.Load())
	check(s.canaryReleases.Load() == s.probeOps.Load(), "%d canaries released for %d probes", s.canaryReleases.Load(), s.probeOps.Load())
	if s.sp.Trace {
		f.Spans = s.brokerSpans()
	}
	return f
}

// brokerSpans joins the publishers' call stamps with the subscribers'
// handle stamps: publish_call is the Publish call itself, deliver is
// from its return to the handler.
func (s *brokerSUT) brokerSpans() map[string][]float64 {
	spans := map[string][]float64{}
	for _, h := range s.handled {
		b := int((h.seq - 1) / brokerBatch)
		if b >= len(s.calls[h.topic]) {
			continue
		}
		began, returned := s.calls[h.topic][b][0], s.calls[h.topic][b][1]
		// A subscriber on the other shard can handle the event before
		// the publisher's call has returned; those have no deliver span.
		if returned <= h.at {
			spans["broker.publish_call_us"] = append(spans["broker.publish_call_us"], float64(returned-began)/1e3)
			spans["broker.deliver_us"] = append(spans["broker.deliver_us"], float64(h.at-returned)/1e3)
		}
	}
	return spans
}
