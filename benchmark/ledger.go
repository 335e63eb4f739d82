package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The L1 ledger: isolated op × per-request count = product, as a share
// of the workload's median latency — the shape of SNIPPETS.md's
// some-go-benchmarks tables (isolated op / per-request count /
// real-world impact). Unit costs come from tight loops and counts from
// counter deltas, so products are estimates; whatever they do not
// explain is shown as the remainder row, never hidden.

type ledgerRow struct {
	layer, op    string
	unitNs       float64
	count        float64
	countMeaning string
}

// writeLedger renders ledger-<workload>.md and rebuilds ledger.md from
// every per-workload ledger present. tracedMedian is the traced child's
// median latency over its ordinary seconds, which is what its spans are
// the anatomy of.
func writeLedger(workload string, v, e2e, e2eTraced map[string]float64, tracedMedian float64, prov provenance) error {
	http := workload == wlHello || workload == wlGuarded
	// Costs measured by timing whole operations include the interpreter
	// steps those operations take; the steps row already prices every
	// step, so the other additive rows are net of theirs.
	net := func(name string) float64 { return max(0, v[name]-v[name+".steps"]*v["sched.step_ns"]) }
	wake, wakeOp := net("iomgr.do_noop_ns"), "iomgr.do_noop_ns"
	if http {
		// The probe keeps a 25 ms timer pending throughout (defect (b)).
		wake, wakeOp = net("sched.idle_wake_pending_timer_ns"), "sched.idle_wake_pending_timer_ns"
	}
	otherParks := max(0, v["sched.parks_per_op"]-v["sched.await_parks_per_op"]-v["sleeps_per_op"])
	otherForks := max(0, v["sched.forks_per_op"]-2*v["sleeps_per_op"])
	additive := []ledgerRow{
		{"sched", "sched.step_ns", v["sched.step_ns"], v["sched.steps_per_op"], "interpreter steps"},
		{"iomgr", wakeOp + " (net of steps)", wake, v["sched.await_parks_per_op"], "parks on an external event (goroutine → External → unpark)"},
		{"sched", "sched.timer_arm_cancel_ns (net of steps)", net("sched.timer_arm_cancel_ns"), v["sleeps_per_op"], "timers armed (sleep parks: one per Timeout or deadline)"},
		{"sched", "sched.mvar_roundtrip_ns (net of steps)", net("sched.mvar_roundtrip_ns"), otherParks, "MVar parks"},
		{"sched", "sched.fork_exit_ns (net of steps)", net("sched.fork_exit_ns"), otherForks, "forks beyond the two each Timeout makes"},
	}
	if http {
		additive = append(additive, ledgerRow{"socket", "iomgr.conn_echo_raw_ns", v["iomgr.conn_echo_raw_ns"], 1,
			"one write+read on an open loopback connection (a floor: connect, accept and close come on top)"})
	}
	var informational []ledgerRow
	switch workload {
	case wlGuarded:
		informational = []ledgerRow{
			{"resilience", "resilience.stack_ns", v["resilience.stack_ns"], 1, "bulkhead + breaker + deadline around the handler"},
			{"supervise", "supervise.child_start_exit_ns", v["supervise.child_start_exit_ns"], 1, "one Temporary child per connection"},
			{"conc", "conc.chan_roundtrip_ns", v["conc.chan_roundtrip_ns"], 1, "accept pump → dispatcher channel"},
			{"obs", "obs.stage_ns", v["obs.stage_ns"], v["obs.events_per_op"], "events recorded"},
		}
	case wlScatter:
		informational = []ledgerRow{
			{"core", "core.either_ns", v["core.either_ns"], 2, "EitherIO: one in the op, one inside its Timeout"},
			{"sched", "sched.throwto_roundtrip_ns", v["sched.throwto_roundtrip_ns"], v["sched.throwtos_per_op"], "throwTo calls"},
		}
	case wlBroker:
		informational = []ledgerRow{
			{"broker", "broker.fanout_ns_per_delivery", v["broker.fanout_ns_per_delivery"], 1, "one delivery on the serial engine"},
			{"actor", "actor.sendall_ns_per_msg", v["actor.sendall_ns_per_msg"], v["actor.sends_per_op"], "mailbox messages"},
			{"sched", "sched.mvar_roundtrip_xshard_ns", v["sched.mvar_roundtrip_xshard_ns"], v["sched.parks_per_op"], "parks, if every wake crossed shards"},
		}
	}

	p50, cpu := e2e["latency_p50_us"], e2e["cpu_us_per_op"]
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", workload)
	fmt.Fprintf(&b, "seed %d, %s, %d CPUs (driver on %v, child on %v), %s, commit %s, %s.\n\n",
		prov.Seed, prov.Host, prov.NProc, prov.Constants["driver_cpus"], prov.Constants["child_cpus"], prov.GoVersion, prov.Commit, prov.TakenAt)
	fmt.Fprintf(&b, "Untraced child: latency_p50_us %.1f, cpu_us_per_op %.2f, throughput_ops_s %.0f. Traced child: latency_p50_us %.1f; driver.trace_overhead_frac %.3f.\n\n",
		p50, cpu, e2e["throughput_ops_s"], e2eTraced["latency_p50_us"], v["driver.trace_overhead_frac"])
	table := func(title string, rows []ledgerRow, withRemainder bool) {
		fmt.Fprintf(&b, "### %s\n\n", title)
		b.WriteString("| layer | isolated op | ns/op | per-request count | what is counted | product µs | share of latency_p50_us | share of cpu_us_per_op |\n")
		b.WriteString("|---|---|---:|---:|---|---:|---:|---:|\n")
		sum := 0.0
		for _, r := range rows {
			product := r.unitNs * r.count / 1e3
			sum += product
			fmt.Fprintf(&b, "| %s | %s | %.1f | %.3f | %s | %.2f | %.1f%% | %.1f%% |\n",
				r.layer, r.op, r.unitNs, r.count, r.countMeaning, product, 100*ratio(product, p50), 100*ratio(product, cpu))
		}
		if withRemainder {
			fmt.Fprintf(&b, "| **remainder** | not attributed | | | latency_p50_us − the rows above | %.2f | %.1f%% | |\n",
				p50-sum, 100*ratio(p50-sum, p50))
		}
		b.WriteString("\n")
	}
	table("Additive rows", additive, true)
	if len(informational) > 0 {
		table("Of which (overlaps the rows above; not additive)", informational, false)
	}
	spanNames := make([]string, 0, len(spanDefs))
	spanSum := 0.0
	for _, d := range spanDefs {
		if v[d.Name] != 0 {
			spanNames = append(spanNames, d.Name)
			spanSum += v[d.Name]
		}
	}
	if len(spanNames) > 0 {
		b.WriteString("### Benchmark-side spans (traced child; consecutive, so self time = duration)\n\n| span | µs |\n|---|---:|\n")
		for _, n := range spanNames {
			fmt.Fprintf(&b, "| %s | %.2f |\n", n, v[n])
		}
		fmt.Fprintf(&b, "| **sum** | %.2f |\n| traced child's median latency (median over slices) | %.2f |\n\n", spanSum, tracedMedian)
	}
	if !http {
		fmt.Fprintf(&b, "The engine serves several requests at once here, so latency_p50_us is mostly time spent behind other requests and the remainder is large by construction; cpu_us_per_op is the better denominator.\n\n")
	}
	if err := writeOut("ledger-"+workload+".md", []byte(b.String())); err != nil {
		return err
	}

	parts, err := filepath.Glob(filepath.Join(outDir, "ledger-*.md"))
	if err != nil {
		return err
	}
	sort.Strings(parts)
	all := "# L1 cost ledger\n\nOne section per workload, each written by that workload's traced run (`-trace 1`). See benchmark/README.md for how to read it.\n\n"
	for _, p := range parts {
		sec, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		all += string(sec)
	}
	return writeOut("ledger.md", []byte(all))
}
