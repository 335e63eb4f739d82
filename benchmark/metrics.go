package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef declares one metric; BENCHMARK.json is generated from
// these tables (see calibrate), so the two cannot drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the gated metrics; every workload reports all of them.
// Definitions are in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"typical_rss_mb", "MB", "lower"},
}

// ungated are end-to-end readings that a bound within the driver's
// ceiling cannot hold on the box this was sized on (AA.md has their
// spreads beside the gated ones'). The traced run prints each as
// driver.<name>.
var ungated = []metricDef{
	{"kill_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// unitCostDefs are the isolated unit costs (units.go).
var unitCostDefs = []metricDef{
	{"sched.step_ns", "ns", "lower"},
	{"sched.fork_exit_ns", "ns", "lower"},
	{"sched.mvar_roundtrip_ns", "ns", "lower"},
	{"sched.mvar_roundtrip_xshard_ns", "ns", "lower"},
	{"sched.throwto_roundtrip_ns", "ns", "lower"},
	{"sched.throwto_roundtrip_xshard_ns", "ns", "lower"},
	{"sched.await_roundtrip_ns", "ns", "lower"},
	{"sched.timer_arm_cancel_ns", "ns", "lower"},
	{"sched.sleep_overshoot_us", "us", "lower"},
	{"sched.idle_wake_pending_timer_ns", "ns", "lower"},
	{"core.either_ns", "ns", "lower"},
	{"core.either_steps", "count", "lower"},
	{"core.bracket_ns", "ns", "lower"},
	{"core.timeout_expire_overshoot_us", "us", "lower"},
	{"core.speculate3_ns", "ns", "lower"},
	{"iomgr.do_noop_ns", "ns", "lower"},
	{"iomgr.conn_echo_ns", "ns", "lower"},
	{"iomgr.conn_echo_raw_ns", "ns", "lower"},
	{"iomgr.cancel_ns", "ns", "lower"},
	{"conc.qsem_ns", "ns", "lower"},
	{"conc.chan_roundtrip_ns", "ns", "lower"},
	{"resilience.stack_ns", "ns", "lower"},
	{"resilience.stack_steps", "count", "lower"},
	{"resilience.deadline_ns", "ns", "lower"},
	{"resilience.bulkhead_ns", "ns", "lower"},
	{"resilience.breaker_ns", "ns", "lower"},
	{"resilience.deadline_overshoot_us", "us", "lower"},
	{"supervise.child_start_exit_ns", "ns", "lower"},
	{"actor.send_receive_ns", "ns", "lower"},
	{"actor.call_roundtrip_ns", "ns", "lower"},
	{"actor.sendall_ns_per_msg", "ns", "lower"},
	{"broker.publish_to_handle_idle_us", "us", "lower"},
	{"broker.fanout_ns_per_delivery", "ns", "lower"},
	{"obs.stage_ns", "ns", "lower"},
}

// countDefs are deltas of public counters over the window, per op.
var countDefs = []metricDef{
	{"sched.steps_per_op", "count", "lower"},
	{"sched.forks_per_op", "count", "lower"},
	{"sched.parks_per_op", "count", "lower"},
	{"sched.throwtos_per_op", "count", "lower"},
	{"sched.delivered_per_op", "count", "lower"},
	{"sched.await_parks_per_op", "count", "lower"},
	{"sched.xshard_throwto_per_kop", "count", "lower"},
	{"sched.steals_per_kop", "count", "lower"},
	{"sched.mailbox_depth_max", "count", "lower"},
	{"actor.sends_per_op", "count", "lower"},
	{"httpd.timed_out", "count", "lower"},
	{"httpd.shed", "count", "lower"},
	{"obs.events_per_op", "count", "lower"},
	{"obs.dropped", "count", "lower"},
	{"go.alloc_b_per_op", "B", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
}

// spanDefs are the benchmark-side spans; a span that a workload does
// not have reads 0 there.
var spanDefs = []metricDef{
	{"driver.connect_us", "us", "lower"},
	{"httpd.accept_to_handler_us", "us", "lower"},
	{"resilience.admit_us", "us", "lower"},
	{"httpd.handler_us", "us", "lower"},
	{"httpd.handler_to_first_byte_us", "us", "lower"},
	{"driver.read_close_us", "us", "lower"},
	{"core.fork_us", "us", "lower"},
	{"core.winner_us", "us", "lower"},
	{"core.kill_us", "us", "lower"},
	{"core.unwind_us", "us", "lower"},
	{"broker.publish_call_us", "us", "lower"},
	{"broker.deliver_us", "us", "lower"},
}

// driverDefs are the driver's own readings of a run, printed and not
// gated; every ungated end-to-end reading joins them.
var driverDefs = func() []metricDef {
	defs := []metricDef{
		{"driver.trace_overhead_frac", "ratio", "lower"},
		{"driver.latency_p99_us", "us", "lower"},
		{"driver.kill_p90_us", "us", "lower"},
		{"driver.slice_cv", "ratio", "lower"},
		{"driver.ok_frac", "ratio", "higher"},
	}
	for _, d := range ungated {
		defs = append(defs, metricDef{"driver." + d.Name, d.Unit, d.Better})
	}
	return defs
}()

var perLayer = func() []metricDef {
	var all []metricDef
	for _, group := range [][]metricDef{unitCostDefs, countDefs, spanDefs, driverDefs} {
		all = append(all, group...)
	}
	return all
}()

// outDir is where result, trace and ledger files go; a variable only so
// that the smoke test can write to a temporary directory.
var outDir = filepath.Join("benchmark", "out")

func writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return writeOut(name, append(b, '\n'))
}

func writeOut(name string, b []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), b, 0o644)
}

// counts turns the window's counter deltas into per-op counts.
func (m *measurement) counts() map[string]float64 {
	a, b := m.before, m.after
	ops := m.windowOps()
	d := func(after, before uint64) float64 { return float64(after - before) }
	return map[string]float64{
		"sched.steps_per_op": ratio(d(b.Sched.Steps, a.Sched.Steps), ops),
		"sched.forks_per_op": ratio(d(b.Sched.Forks, a.Sched.Forks), ops),
		"sched.parks_per_op": ratio(d(b.Sched.MVarTakeParks+b.Sched.MVarPutParks+b.Sched.Sleeps+b.Sched.AwaitParks,
			a.Sched.MVarTakeParks+a.Sched.MVarPutParks+a.Sched.Sleeps+a.Sched.AwaitParks), ops),
		"sched.throwtos_per_op":        ratio(d(b.Sched.ThrowTos, a.Sched.ThrowTos), ops),
		"sched.delivered_per_op":       ratio(d(b.Sched.Delivered, a.Sched.Delivered), ops),
		"sched.await_parks_per_op":     ratio(d(b.Sched.AwaitParks, a.Sched.AwaitParks), ops),
		"sched.xshard_throwto_per_kop": 1e3 * ratio(d(b.Sched.CrossShardThrowTo, a.Sched.CrossShardThrowTo), ops),
		"sched.steals_per_kop":         1e3 * ratio(d(b.Sched.Steals, a.Sched.Steals), ops),
		"sched.mailbox_depth_max":      float64(b.Sched.MailboxDepth),
		"actor.sends_per_op":           ratio(d(b.Sched.ActorSends, a.Sched.ActorSends), ops),
		"httpd.timed_out":              float64(b.TimedOut - a.TimedOut),
		"httpd.shed":                   float64(b.Shed - a.Shed),
		"obs.events_per_op":            ratio(d(b.ObsRecorded, a.ObsRecorded), ops),
		"obs.dropped":                  d(b.ObsDropped, a.ObsDropped),
		"go.alloc_b_per_op":            ratio(d(b.AllocBytes, a.AllocBytes), ops),
		"go.allocs_per_op":             ratio(d(b.Mallocs, a.Mallocs), ops),
		"go.gc_cycles":                 float64(b.NumGC - a.NumGC),
		"go.gc_pause_ms":               d(b.PauseNs, a.PauseNs) / 1e6,
		// Kept for the ledger, not declared as metrics.
		"sleeps_per_op": ratio(d(b.Sched.Sleeps, a.Sched.Sleeps), ops),
	}
}

// span is one benchmark-side span as trace-<workload>.json stores it.
type span struct {
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"` // from the request's start
	DurUs   float64 `json:"dur_us"`
}

const maxTraceFileRequests = 2000

// httpSpans splits every timed request of the traced window into six
// consecutive spans — they sum to the request's latency exactly, so a
// span's self time is its duration — and reports, for each, the mean
// over the requests whose latency lies between the 40th and 60th
// percentile: the anatomy of the median request.
func (m *measurement) httpSpans() (map[string]float64, []span) {
	type parts struct {
		total float64
		seg   [6]float64
		admit [2]float64 // way in, way out
	}
	names := []string{"driver.connect_us", "httpd.accept_to_handler_us", "resilience.admit_us",
		"httpd.handler_us", "httpd.handler_to_first_byte_us", "driver.read_close_us"}
	first, last := m.ticks[0].TNs, m.ticks[len(m.ticks)-1].TNs
	var reqs []parts
	var file []span
	for _, op := range m.ops {
		if !op.ok || !op.timed || op.start < first || op.end > last || op.id < 0 || op.id >= len(m.fin.ServerStamps) {
			continue
		}
		st := m.fin.ServerStamps[op.id]
		chain := []int64{op.start, op.connected, st[0], st[1], st[2], st[3], op.firstByte, op.end}
		if !sort.SliceIsSorted(chain, func(i, j int) bool { return chain[i] < chain[j] }) {
			continue // a stamp is missing or the two clocks disagree
		}
		us := func(a, b int64) float64 { return float64(b-a) / 1e3 }
		p := parts{total: us(op.start, op.end), admit: [2]float64{us(st[0], st[1]), us(st[2], st[3])}}
		p.seg = [6]float64{us(op.start, op.connected), us(op.connected, st[0]), p.admit[0] + p.admit[1],
			us(st[1], st[2]), us(st[3], op.firstByte), us(op.firstByte, op.end)}
		reqs = append(reqs, p)
		if len(reqs) <= maxTraceFileRequests {
			file = append(file, span{Req: op.id, Name: "request", DurUs: p.total})
			for i, at := range []int64{op.start, op.connected, st[0], st[1], st[3], op.firstByte} {
				dur := p.seg[i]
				if i == 2 {
					dur = p.admit[0]
				}
				file = append(file, span{op.id, names[i], "request", us(op.start, at), dur})
			}
			file = append(file, span{op.id, names[2], "request", us(op.start, st[2]), p.admit[1]})
		}
	}
	out := map[string]float64{}
	if len(reqs) == 0 {
		return out, file
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].total < reqs[j].total })
	band := reqs[len(reqs)*4/10 : max(len(reqs)*6/10, len(reqs)*4/10+1)]
	for i, name := range names {
		for _, p := range band {
			out[name] += p.seg[i] / float64(len(band))
		}
	}
	return out, file
}

// chainSpans reports the median of each in-process span and lays the
// first ops out for the trace file; order is the chain's order.
func chainSpans(spans map[string][]float64, order []string) (map[string]float64, []span) {
	out := map[string]float64{}
	var file []span
	for _, name := range order {
		out[name] = median(append([]float64(nil), spans[name]...))
	}
	for req := 0; req < min(maxTraceFileRequests, len(spans[order[0]])); req++ {
		at := 0.0
		for _, name := range order {
			file = append(file, span{Req: req, Name: name, StartUs: at, DurUs: spans[name][req]})
			at += spans[name][req]
		}
	}
	return out, file
}

// runTraced is the traced run: the unit costs in a child of their own,
// then the workload untraced and traced for a share of the time each.
// Counts and the driver.* readings come from the untraced child, spans
// from the traced one, and the difference in throughput between the
// two is what tracing costs.
func runTraced(workload string, seed int64, total time.Duration, prov *provenance) (map[string]float64, *measurement, error) {
	scale := min(1, total.Seconds()/20)
	units, err := runUnits(scale)
	if err != nil {
		return nil, nil, err
	}
	plain, err := measure(spec{Workload: workload, Seed: seed}, total*3/10)
	if err != nil {
		return nil, nil, err
	}
	traced, err := measure(spec{Workload: workload, Seed: seed, Trace: true}, total*4/10)
	if err != nil {
		return nil, nil, err
	}
	prov.countSamples(plain)

	values := map[string]float64{}
	for k, v := range units {
		values[k] = v
	}
	counts := plain.counts()
	for k, v := range counts {
		values[k] = v
	}
	var spans map[string]float64
	var file []span
	switch workload {
	case wlHello, wlGuarded:
		spans, file = traced.httpSpans()
	case wlScatter:
		spans, file = chainSpans(traced.fin.Spans, scatterSpans)
	case wlBroker:
		spans, file = chainSpans(traced.fin.Spans, []string{"broker.publish_call_us", "broker.deliver_us"})
	}
	for k, v := range spans {
		values[k] = v
	}
	prov.Samples["spans"] = len(file)

	e2e, e2eTraced := plain.readings(), traced.readings()
	for _, d := range ungated {
		values["driver."+d.Name] = e2e[d.Name]
	}
	values["driver.trace_overhead_frac"] = 1 - ratio(e2eTraced["throughput_ops_s"], e2e["throughput_ops_s"])
	values["driver.latency_p99_us"] = plain.overSlices(func(s sliceStats) float64 { return s.LatP99 })
	values["driver.kill_p90_us"] = plain.overSlices(func(s sliceStats) float64 { return s.KillP90 })
	values["driver.slice_cv"] = cv(plain.throughputs())
	// Both children count: a traced run that breaks the program fails.
	plain.attempted += traced.attempted
	plain.failed += traced.failed
	plain.notes = append(plain.notes, traced.notes...)
	values["driver.ok_frac"] = ratio(float64(plain.attempted-plain.failed), float64(plain.attempted))

	if err := writeJSON("trace-"+workload+".json", struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{*prov, file}); err != nil {
		return nil, nil, err
	}
	tracedMedian := traced.overSlices(func(s sliceStats) float64 { return s.LatP50 })
	if err := writeLedger(workload, values, e2e, e2eTraced, tracedMedian, *prov); err != nil {
		return nil, nil, err
	}
	return values, plain, nil
}

// runUnits measures the isolated unit costs in a fresh child.
func runUnits(scale float64) (map[string]float64, error) {
	c, err := spawnRaw(spec{Workload: "units", UnitScale: scale, CPUs: cpus})
	if err != nil {
		return nil, err
	}
	var units map[string]float64
	// The full set of loops takes ~4 s on the box this was sized on.
	if err := c.decode(&units, 4*callDeadline); err != nil {
		c.abandon()
		return nil, fmt.Errorf("unit costs: %w", err)
	}
	if err := c.wait(); err != nil {
		return nil, fmt.Errorf("unit-cost child: %w", err)
	}
	return units, nil
}
