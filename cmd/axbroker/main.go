// Command axbroker drives the pub-sub broker built on internal/actor:
// topic actors fanning published events out to supervised subscriber
// actors, every delivery travelling the paper's exception-machinery
// paths (mailbox takeMVar locally, message-as-exception remotely).
//
// Local mode sweeps the parallel engine and prints a throughput line
// per shard count, after auditing that no subscriber delivery was lost
// or duplicated; with -kills > 0 it also shoots the topic actors
// mid-stream and lets the supervisor restart them — the acceptance
// property the chaos soak (internal/chaos.RunActor) checks under 100
// seeds in CI — and exits 1 if no kill led to a restart. A short
// delivery, in either mode, exits 1 once the run's 120 s deadline
// passes.
//
// Cluster mode builds a 3-node cluster (in-memory transport or real
// TCP loopback), places the topics on node A and the subscribers on
// nodes B and C, and drives the same workload across the wire.
//
//	axbroker                      # local sweep, shards 1/2/4/8
//	axbroker -events 1048576      # drive ~16.8M deliveries per row
//	axbroker -kills 8             # kill topics mid-stream, audit exactly-once
//	axbroker -cluster mem         # 3-node in-memory cluster
//	axbroker -cluster tcp         # 3-node TCP-loopback cluster
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/actor"
	"asyncexc/internal/broker"
	"asyncexc/internal/core"
	"asyncexc/internal/supervise"
)

func main() {
	events := flag.Int("events", 1<<16, "events published per topic")
	topics := flag.Int("topics", 4, "topic actors")
	subs := flag.Int("subs", 4, "subscriber actors per topic")
	batch := flag.Int("batch", 512, "publish batch size")
	kills := flag.Int("kills", 0, "kill attempts at topic actors mid-stream (local mode)")
	clusterMode := flag.String("cluster", "", "run 3-node cluster mode: mem | tcp")
	shardList := flag.String("shards", "1,2,4,8", "comma-separated shard counts for the local sweep")
	flag.Parse()

	if *clusterMode != "" {
		r, err := runCluster(*clusterMode, *topics, *subs, *events, *batch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "axbroker: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("axbroker: 3-node %s cluster — topics on A, subscribers on B/C; %d topics x %d subscribers, %d events/topic\n",
			*clusterMode, *topics, *subs, min(*events, maxClusterEvents))
		fmt.Printf("  3-node %s: %d remote deliveries in %dms = %.0fk msgs/sec\n",
			*clusterMode, r.delivered, r.elapsed.Milliseconds(), r.rate()/1e3)
		return
	}

	fmt.Printf("axbroker: local sweep — %d topics x %d subscribers, %d events/topic, batch %d\n",
		*topics, *subs, *events, *batch)
	for _, s := range strings.Split(*shardList, ",") {
		var shards int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &shards); err != nil || shards < 1 {
			fmt.Fprintf(os.Stderr, "axbroker: bad shard count %q\n", s)
			os.Exit(2)
		}
		r, err := runLocal(shards, *topics, *subs, *events, *batch, *kills)
		if err != nil {
			fmt.Fprintf(os.Stderr, "axbroker: %d-shard: %v\n", shards, err)
			os.Exit(1)
		}
		fmt.Printf("  %d-shard: %d deliveries in %dms = %.2fM msgs/sec  (restarts=%d lost=%d duplicated=%d)\n",
			shards, r.delivered, r.elapsed.Milliseconds(), r.rate()/1e6, r.restarts, r.lost, r.dup)
	}
}

// deadline bounds one run: a delivery that never lands fails the run
// with its delivered/want count instead of hanging it.
var deadline = 120 * time.Second

// result is what one run counted.
type result struct {
	delivered uint64
	elapsed   time.Duration
	restarts  uint64 // local mode: supervisor restarts of killed topics
	lost, dup int    // local mode: the exactly-once audit
}

func (r result) rate() float64 { return float64(r.delivered) / r.elapsed.Seconds() }

// runLocal drives one supervised broker on a shards-wide runtime:
// every topic and every subscriber is a Permanent child of one
// supervisor — kill a topic and the supervisor restarts it onto the
// same (surviving) mailbox. Every run is audited for exactly-once
// delivery; a loss, a duplicate or a missed deadline is an error, and
// so is a run asked for kills in which none led to a restart.
func runLocal(shards, topics, subsPer, events, batch, kills int) (result, error) {
	opts := core.RealTimeOptions()
	opts.Shards = shards
	sys := core.NewSystem(opts)
	asys := actor.NewSystem(nil)

	var delivered atomic.Uint64
	var mu sync.Mutex
	counts := make([]map[uint64]int, topics*subsPer)
	for i := range counts {
		counts[i] = map[uint64]int{}
	}
	want := uint64(topics * subsPer * events)

	var sup *supervise.Supervisor
	var start, end time.Time

	prog := core.Delay(func() core.IO[core.Unit] {
		spec := supervise.Spec{
			Name:      "broker",
			Strategy:  supervise.OneForOne,
			Intensity: supervise.Intensity{MaxRestarts: -1, Window: time.Second},
			Backoff:   supervise.Backoff{Initial: time.Millisecond, Max: 8 * time.Millisecond},
		}
		var topicRefs []actor.Ref[broker.Cmd]
		var firstKill core.MVar[core.Unit]
		setup := core.Map(core.NewEmptyMVar[core.Unit](), func(mv core.MVar[core.Unit]) core.Unit { firstKill = mv; return core.UnitValue })
		for ti := 0; ti < topics; ti++ {
			name := fmt.Sprintf("t%d", ti)
			ti := ti
			setup = core.Then(setup, core.Bind(broker.NewTopic(asys, name), func(tp broker.Topic) core.IO[core.Unit] {
				topicRefs = append(topicRefs, tp.Ref)
				spec.Children = append(spec.Children, tp.Spec)
				wire := core.Return(core.UnitValue)
				for si := 0; si < subsPer; si++ {
					idx := ti*subsPer + si
					id := fmt.Sprintf("%s-s%d", name, si)
					wire = core.Then(wire, core.Bind(
						broker.NewSubscriber(asys, id, func(evs []broker.Event) core.IO[core.Unit] {
							return core.Lift(func() core.Unit {
								delivered.Add(uint64(len(evs)))
								mu.Lock()
								for _, e := range evs {
									counts[idx][e.Seq]++
								}
								mu.Unlock()
								return core.UnitValue
							})
						}),
						func(sb broker.Subscriber) core.IO[core.Unit] {
							spec.Children = append(spec.Children, sb.Spec)
							return broker.Subscribe(tp.Ref, id, sb.Ref)
						}))
				}
				return wire
			}))
		}
		return core.Then(setup, core.Delay(func() core.IO[core.Unit] {
			return supervise.WithSupervisor(spec, func(s *supervise.Supervisor) core.IO[core.Unit] {
				sup = s
				// With kills, every publisher holds its second half until the
				// first kill has been thrown, so that kill lands mid-stream and
				// its topic must restart for the delivery to complete.
				hold := core.Return(core.UnitValue)
				if kills > 0 {
					hold = core.Void(core.Read(firstKill))
				}
				pubs := core.Lift(func() core.Unit { start = time.Now(); return core.UnitValue })
				for i, ref := range topicRefs {
					pubs = core.Then(pubs, core.Void(core.Fork(publish(ref, fmt.Sprintf("t%d", i), events, batch, hold))))
				}
				if kills > 0 {
					pubs = core.Then(pubs, core.Void(core.Fork(injector(s, topicRefs, kills, &delivered, want, firstKill))))
				}
				var drain func() core.IO[core.Unit]
				drain = func() core.IO[core.Unit] {
					return core.Delay(func() core.IO[core.Unit] {
						if delivered.Load() >= want || time.Since(start) > deadline {
							return core.Lift(func() core.Unit { end = time.Now(); return core.UnitValue })
						}
						return core.Then(core.Sleep(time.Millisecond), drain())
					})
				}
				return core.Then(pubs, drain())
			})
		}))
	})

	if _, e, err := core.RunSystem(sys, prog); e != nil || err != nil {
		return result{}, fmt.Errorf("run failed: exc=%v err=%v", e, err)
	}
	r := result{delivered: delivered.Load(), elapsed: end.Sub(start)}
	if sup != nil {
		r.restarts = sup.Metrics.Restarts.Load()
	}
	if r.delivered < want {
		return r, fmt.Errorf("timed out after %v (delivered %d/%d)", deadline, r.delivered, want)
	}
	mu.Lock()
	r.lost, r.dup = audit(counts, events)
	mu.Unlock()
	if r.lost+r.dup > 0 {
		return r, fmt.Errorf("exactly-once audit FAILED: lost=%d duplicated=%d (delivered %d/%d)",
			r.lost, r.dup, r.delivered, want)
	}
	if kills > 0 && r.restarts == 0 {
		return r, fmt.Errorf("no kill landed: %d requested, restarts=0, so the audit covered no restart", kills)
	}
	return r, nil
}

// publish emits events [1..total] in batches, running hold after the
// batch that reaches the halfway event.
func publish(ref actor.Ref[broker.Cmd], topic string, total, batch int, hold core.IO[core.Unit]) core.IO[core.Unit] {
	var loop func(next int) core.IO[core.Unit]
	loop = func(next int) core.IO[core.Unit] {
		if next > total {
			return core.Return(core.UnitValue)
		}
		n := batch
		if next+n > total+1 {
			n = total + 1 - next
		}
		evs := make([]broker.Event, n)
		for i := range evs {
			evs[i] = broker.Event{Topic: topic, Seq: uint64(next + i)}
		}
		pub := broker.Publish(ref, evs)
		if half := (total + 1) / 2; next <= half && half < next+n {
			pub = core.Then(pub, hold)
		}
		return core.Then(pub, core.Delay(func() core.IO[core.Unit] { return loop(next + n) }))
	}
	return loop(1)
}

// injector shoots ThreadKilled at live topic incarnations while the
// publishers run. The kills are paced by the delivered count, not the
// clock, so they land however short the run: kill k waits for
// k/(kills+1) of the want deliveries, the first for the first one,
// and once the first has been thrown firstKill is filled, releasing
// the publishers' second halves.
func injector(s *supervise.Supervisor, refs []actor.Ref[broker.Cmd], kills int, delivered *atomic.Uint64, want uint64, firstKill core.MVar[core.Unit]) core.IO[core.Unit] {
	var loop func(k int) core.IO[core.Unit]
	loop = func(k int) core.IO[core.Unit] {
		if k >= kills {
			return core.Return(core.UnitValue)
		}
		if delivered.Load() < max(1, uint64(k)*want/uint64(kills+1)) {
			return core.Then(core.Sleep(50*time.Microsecond), core.Delay(func() core.IO[core.Unit] { return loop(k) }))
		}
		next := core.Delay(func() core.IO[core.Unit] { return loop(k + 1) })
		if k == 0 {
			next = core.Then(core.Put(firstKill, core.UnitValue), next)
		}
		id := fmt.Sprintf("topic/t%d", k%len(refs))
		tid, ok := s.ChildThreadID(id)
		if !ok {
			return next
		}
		return core.Then(core.Void(core.Try(core.KillThread(tid))), next)
	}
	return loop(0)
}

// audit checks exactly-once delivery per subscriber.
func audit(counts []map[uint64]int, events int) (lost, dup int) {
	for _, m := range counts {
		for s := uint64(1); s <= uint64(events); s++ {
			switch n := m[s]; {
			case n == 0:
				lost++
			case n > 1:
				dup++
			}
		}
	}
	return
}
