package main

import (
	"fmt"
	"testing"
	"time"
)

// TestBrokerDelivers runs the broker the way the command does, small:
// the local sweep with topic kills, audited for exactly-once delivery
// across at least one restart,
// and the 3-node cluster over the in-memory transport and over TCP
// loopback, where every delivery crosses the wire. Each row must
// deliver every published event to every subscriber.
func TestBrokerDelivers(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock broker runs")
	}
	defer func(d time.Duration) { deadline = d }(deadline)
	deadline = 10 * time.Second // a lost delivery fails a row here, not at 120 s

	const topics, subs, events, batch, kills = 4, 4, 16384, 512, 8
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("local-%d-shard", shards), func(t *testing.T) {
			r, err := runLocal(shards, topics, subs, events, batch, kills)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(topics * subs * events); r.delivered != want || r.lost != 0 || r.dup != 0 {
				t.Fatalf("delivered %d/%d, lost %d, duplicated %d", r.delivered, want, r.lost, r.dup)
			}
			if r.restarts < 1 {
				t.Fatalf("%d kills requested, restarts=%d: the audit covered no restart", kills, r.restarts)
			}
		})
	}
	const clusterEvents = 1024
	for _, mode := range []string{"mem", "tcp"} {
		t.Run("cluster-"+mode, func(t *testing.T) {
			r, err := runCluster(mode, topics, subs, clusterEvents, batch)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(topics * subs * clusterEvents); r.delivered != want {
				t.Fatalf("delivered %d/%d", r.delivered, want)
			}
		})
	}
}
