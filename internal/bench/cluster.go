package bench

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"asyncexc/internal/cluster"
	"asyncexc/internal/core"
	"asyncexc/internal/sched"
)

// RemoteThrowLatency builds the N1 table: wall-clock latency of a
// cross-node throwTo, from the moment the killer's green thread is
// injected on node A to the moment the victim's bracket cleanup runs
// on node B. The path under test is the full remote delivery chain:
// green ThrowTo → frame encode → in-memory wire → dedup → External
// injection → rule Interrupt at a thread parked in takeMVar → bracket
// unwind. Both engines are measured; this is wall-clock and
// machine-dependent, unlike the step-counted tables.
func RemoteThrowLatency(rounds int) *Table {
	if rounds <= 0 {
		rounds = 200
	}
	t := &Table{
		ID:      "N1",
		Title:   "remote throwTo latency (A kills a thread parked on B)",
		Columns: []string{"engine", "rounds", "p50", "p95", "max", "framesSent"},
		Notes: []string{
			"latency = kill injected on A -> victim bracket cleanup observed on B (in-memory transport)",
			"wall-clock: numbers are machine-dependent; the delivery chain exercised is the deterministic part",
		},
	}
	for _, eng := range []struct {
		name   string
		shards int
	}{{"serial", 1}, {"4-shard", 4}} {
		lat, frames := measureRemoteThrow(rounds, eng.shards)
		if lat == nil {
			t.AddRow(eng.name, rounds, "error", "error", "error", 0)
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		t.AddRow(eng.name, rounds,
			us(lat[len(lat)/2]), us(lat[len(lat)*95/100]), us(lat[len(lat)-1]), frames)
	}
	return t
}

func us(d time.Duration) string { return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1e3) }

// benchNode is one cluster member with its own running real-time
// system (the bench mirror of the chaos soak's node harness).
type benchNode struct {
	node *cluster.Node
	sys  *core.System
	done chan struct{}
}

func startBenchNode(id cluster.NodeID, mn *cluster.MemNetwork, shards int) (*benchNode, error) {
	opts := core.RealTimeOptions()
	opts.Shards = shards
	sys := core.NewSystem(opts)
	n := cluster.NewNode(id, sys, mn.Endpoint(string(id)), cluster.Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		core.RunSystem(sys, core.Void(core.Sleep(time.Hour))) //nolint:errcheck
	}()
	if _, err := n.Serve(string(id)); err != nil {
		sys.KillMain()
		<-done
		return nil, err
	}
	return &benchNode{node: n, sys: sys, done: done}, nil
}

func (bn *benchNode) stop() {
	bn.node.Close()
	bn.sys.KillMain()
	<-bn.done
}

func (bn *benchNode) spawn(name string, prog core.IO[core.Unit]) {
	wrapped := core.Void(core.Try(prog))
	bn.sys.RT().External(func(rt *sched.RT) { rt.Spawn(wrapped.Node(), name) })
}

func measureRemoteThrow(rounds, shards int) ([]time.Duration, uint64) {
	mn := cluster.NewMemNetwork(1)
	a, err := startBenchNode("A", mn, shards)
	if err != nil {
		return nil, 0
	}
	defer a.stop()
	b, err := startBenchNode("B", mn, shards)
	if err != nil {
		return nil, 0
	}
	defer b.stop()

	a.spawn("connect", core.Void(cluster.Connect(a.node, "B")))
	deadline := time.Now().Add(5 * time.Second)
	for len(a.node.Peers()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(a.node.Peers()) == 0 {
		return nil, 0
	}

	lat := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		var cleaned atomic.Bool
		victim := core.Bracket(
			core.Return(core.UnitValue),
			func(core.Unit) core.IO[core.Unit] {
				return core.Bind(core.NewEmptyMVar[core.Unit](), func(mv core.MVar[core.Unit]) core.IO[core.Unit] {
					return core.Void(core.Take(mv))
				})
			},
			func(core.Unit) core.IO[core.Unit] {
				return core.Lift(func() core.Unit { cleaned.Store(true); return core.UnitValue })
			})
		refCh := make(chan cluster.RemoteRef, 1)
		b.spawn("spawn", core.Bind(
			cluster.SpawnRegistered(b.node, fmt.Sprintf("victim-%d", i), victim),
			func(ref cluster.RemoteRef) core.IO[core.Unit] {
				return core.Lift(func() core.Unit { refCh <- ref; return core.UnitValue })
			}))
		var ref cluster.RemoteRef
		select {
		case ref = <-refCh:
		case <-time.After(5 * time.Second):
			return nil, 0
		}

		start := time.Now()
		a.spawn("kill", core.Void(core.Try(cluster.Kill(a.node, ref))))
		for !cleaned.Load() {
			if time.Since(start) > 5*time.Second {
				return nil, 0
			}
			time.Sleep(20 * time.Microsecond)
		}
		lat = append(lat, time.Since(start))
	}
	return lat, a.node.Stats.FramesSent.Load()
}
