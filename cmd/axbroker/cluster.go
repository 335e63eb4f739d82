package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"asyncexc/internal/actor"
	"asyncexc/internal/broker"
	"asyncexc/internal/cluster"
	"asyncexc/internal/core"
	"asyncexc/internal/sched"
)

// member is one node of the demo cluster with an actor System bound
// to it.
type member struct {
	node *cluster.Node
	sys  *core.System
	asys *actor.System
	done chan struct{}
}

func startMember(id cluster.NodeID, tr cluster.Transport, addr string) (*member, error) {
	sys := core.NewSystem(core.RealTimeOptions())
	n := cluster.NewNode(id, sys, tr, cluster.Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		core.RunSystem(sys, core.Void(core.Sleep(time.Hour))) //nolint:errcheck
	}()
	if _, err := n.Serve(addr); err != nil {
		sys.KillMain()
		<-done
		return nil, err
	}
	return &member{node: n, sys: sys, asys: actor.NewSystem(n), done: done}, nil
}

func (m *member) stop() {
	m.node.Close()
	m.sys.KillMain()
	<-m.done
}

func (m *member) spawn(name string, prog core.IO[core.Unit]) {
	wrapped := core.Void(core.Try(prog))
	m.sys.RT().External(func(rt *sched.RT) { rt.Spawn(wrapped.Node(), name) })
}

// maxClusterEvents caps cluster mode's events per topic: the remote
// path is per-message frames, ~2 orders of magnitude below the batched
// local path.
const maxClusterEvents = 1 << 12

// runCluster places topics on node A and subscribers on B and C;
// every delivery crosses the wire as a message-carrying exception.
// A short delivery at the deadline is an error.
func runCluster(mode string, topics, subsPer, events, batch int) (result, error) {
	events = min(events, maxClusterEvents)

	endpoints := map[cluster.NodeID]cluster.Transport{}
	addrs := map[cluster.NodeID]string{"A": "A", "B": "B", "C": "C"}
	switch mode {
	case "mem":
		mn := cluster.NewMemNetwork(41)
		for id := range addrs {
			endpoints[id] = mn.Endpoint(string(id))
		}
	case "tcp":
		base := 39300
		i := 0
		for _, id := range []cluster.NodeID{"A", "B", "C"} {
			endpoints[id] = cluster.TCP{}
			addrs[id] = fmt.Sprintf("127.0.0.1:%d", base+i)
			i++
		}
	default:
		return result{}, fmt.Errorf("unknown cluster mode %q (want mem or tcp)", mode)
	}

	members := map[cluster.NodeID]*member{}
	for _, id := range []cluster.NodeID{"A", "B", "C"} {
		m, err := startMember(id, endpoints[id], addrs[id])
		if err != nil {
			return result{}, fmt.Errorf("start %s: %v", id, err)
		}
		defer m.stop()
		members[id] = m
	}
	a := members["A"]

	var delivered atomic.Uint64
	want := uint64(topics * subsPer * events)

	// Subscribers on B and C under registered names.
	for ti := 0; ti < topics; ti++ {
		for si := 0; si < subsPer; si++ {
			host := members[[]cluster.NodeID{"B", "C"}[si%2]]
			id := fmt.Sprintf("t%d-s%d", ti, si)
			host.spawn("sub-"+id, core.Bind(
				broker.NewSubscriber(host.asys, id, func(evs []broker.Event) core.IO[core.Unit] {
					return core.Lift(func() core.Unit {
						delivered.Add(uint64(len(evs)))
						return core.UnitValue
					})
				}),
				func(sb broker.Subscriber) core.IO[core.Unit] {
					return core.Void(core.Fork(core.Void(core.Try(sb.Spec.Start()))))
				}))
		}
	}

	resolveSub := func(host cluster.NodeID, id string) core.IO[actor.Ref[broker.Event]] {
		var loop func(tries int) core.IO[actor.Ref[broker.Event]]
		loop = func(tries int) core.IO[actor.Ref[broker.Event]] {
			return core.Bind(actor.Resolve(a.asys, host, "sub/"+id, broker.EventCodec),
				func(m core.Maybe[actor.Ref[broker.Event]]) core.IO[actor.Ref[broker.Event]] {
					if m.IsJust {
						return core.Return(m.Value)
					}
					if tries <= 0 {
						return core.Throw[actor.Ref[broker.Event]](
							cluster.RemoteError{Node: host, Msg: "subscriber " + id + " never registered"})
					}
					return core.Then(core.Sleep(5*time.Millisecond),
						core.Delay(func() core.IO[actor.Ref[broker.Event]] { return loop(tries - 1) }))
				})
		}
		return loop(1000)
	}

	errc := make(chan error, 1)
	start := time.Now()
	a.spawn("driver", core.Bind(core.Try(core.Delay(func() core.IO[core.Unit] {
		body := core.Then(core.Void(cluster.Connect(a.node, addrs["B"])),
			core.Void(cluster.Connect(a.node, addrs["C"])))
		var refs []actor.Ref[broker.Cmd]
		for ti := 0; ti < topics; ti++ {
			name := fmt.Sprintf("t%d", ti)
			ti := ti
			body = core.Then(body, core.Bind(broker.NewTopic(a.asys, name), func(tp broker.Topic) core.IO[core.Unit] {
				refs = append(refs, tp.Ref)
				wire := core.Void(core.Fork(core.Void(core.Try(tp.Spec.Start()))))
				for si := 0; si < subsPer; si++ {
					id := fmt.Sprintf("t%d-s%d", ti, si)
					host := []cluster.NodeID{"B", "C"}[si%2]
					wire = core.Then(wire, core.Bind(resolveSub(host, id),
						func(ref actor.Ref[broker.Event]) core.IO[core.Unit] {
							return broker.Subscribe(tp.Ref, id, ref)
						}))
				}
				return wire
			}))
		}
		pubs := core.Delay(func() core.IO[core.Unit] {
			io := core.Return(core.UnitValue)
			for i, ref := range refs {
				io = core.Then(io, core.Void(core.Fork(publish(ref, fmt.Sprintf("t%d", i), events, batch, core.Return(core.UnitValue)))))
			}
			return io
		})
		var drain func() core.IO[core.Unit]
		drain = func() core.IO[core.Unit] {
			return core.Delay(func() core.IO[core.Unit] {
				if delivered.Load() >= want {
					return core.Return(core.UnitValue)
				}
				return core.Then(core.Sleep(time.Millisecond), drain())
			})
		}
		return core.Seq(body, pubs, drain())
	})), func(r core.Attempt[core.Unit]) core.IO[core.Unit] {
		return core.Lift(func() core.Unit {
			if r.Failed() {
				errc <- fmt.Errorf("driver died: %v", r.Exc)
			} else {
				errc <- nil
			}
			return core.UnitValue
		})
	}))

	select {
	case err := <-errc:
		if err != nil {
			return result{}, err
		}
	case <-time.After(deadline):
		return result{}, fmt.Errorf("timed out after %v (delivered %d/%d)", deadline, delivered.Load(), want)
	}
	return result{delivered: delivered.Load(), elapsed: time.Since(start)}, nil
}
