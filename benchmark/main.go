// Command benchmark is the repository's one repeatable benchmark: four
// workloads, five gated end-to-end metrics, and a per-layer cost
// ledger. BENCHMARK.json at the repository root declares what it
// prints; README.md in this directory defines every metric and
// workload and says how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func numCPU() int { return runtime.NumCPU() }

// cpus are the CPUs the driver found itself allowed on, before it
// pinned itself; nil where pinning is not available or not wanted
// (tests).
var cpus []int

// childCPUs says where a workload's child runs. The three serial
// workloads — one load connection, one shard — have nothing to run in
// parallel, so driver and child share the last CPU: on this VM a wake-up
// that crosses CPUs costs either ~11 or ~19 µs depending on where the
// host has put the virtual CPUs, which made back-to-back runs of the same
// code disagree by 40% on http-hello; kept on one CPU they agree within
// about a tenth. broker-fanout runs two shards and gets every CPU.
func childCPUs(workload string) []int {
	if len(cpus) >= 2 && workload != wlBroker {
		return cpus[len(cpus)-1:]
	}
	return cpus
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance says where and how a result was taken; it is printed on
// the line before the result and stored beside it in benchmark/out.
type provenance struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Host       string         `json:"host"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	TakenAt    string         `json:"taken_at"`
	Constants  map[string]any `json:"constants"`
	Samples    map[string]int `json:"samples"` // sample count behind each percentile and median
	Notes      []string       `json:"notes,omitempty"`
}

func newProvenance(workload string, trace bool, seed int64, seconds float64) provenance {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	return provenance{
		Workload: workload, Trace: trace, Seed: seed, Seconds: seconds,
		Host: host, NProc: numCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, TakenAt: time.Now().UTC().Format(time.RFC3339),
		Constants: map[string]any{
			"request_timeout_ms": requestTimeout.Milliseconds(), "probe_deadline_ms": probeDeadline.Milliseconds(),
			"client_deadline_ms": clientDeadline.Milliseconds(), "load_connections": loadConnections(), "probe_connections": 1,
			"work_iters": workIters, "scatter_threads": scatterThreads, "scatter_yields": scatterYields,
			"scatter_probe_every": scatterProbe, "scatter_latency_sample_every": scatterSample,
			"broker_topics": brokerTopics, "broker_subscribers": brokerSubs, "broker_batch": brokerBatch,
			"broker_credits": brokerCredits, "broker_latency_sample_every": brokerSample,
			"broker_probe_gap_ms": brokerProbeGap.Milliseconds(), "setup_rounds": setupRounds,
			"driver_cpus": cpus[max(0, len(cpus)-1):], "child_cpus": childCPUs(workload),
		},
		Samples: map[string]int{},
	}
}

func (p *provenance) countSamples(m *measurement) {
	p.Samples["latency"] = m.samples.LatN
	p.Samples["kill"] = m.samples.KillN
	p.Samples["slices"] = len(m.ticks) - 1
	p.Samples["setup"] = len(m.setups)
	p.Notes = append(p.Notes, m.notes...)
}

// runOnce performs one run the way the driver asks for it and returns
// what the last line reports.
func runOnce(workload string, seed int64, seconds float64, trace bool) (result, provenance, error) {
	prov := newProvenance(workload, trace, seed, seconds)
	window := time.Duration(seconds * float64(time.Second))
	var values map[string]float64
	var defs []metricDef
	var m *measurement
	var err error
	if trace {
		defs = perLayer
		values, m, err = runTraced(workload, seed, window, &prov)
	} else {
		defs = endToEnd
		if m, err = measure(spec{Workload: workload, Seed: seed}, window); err == nil {
			values = m.readings()
			prov.countSamples(m)
		}
	}
	if err != nil {
		return result{}, prov, err
	}
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return res, prov, nil
}

// report prints the human-readable table, the provenance line and the
// result line, and stores both under benchmark/out.
func report(res result, prov provenance) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v: correct=%v attempted=%d failed=%d\n",
		prov.Workload, prov.Seed, prov.Trace, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Printf("#   %-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range prov.Notes {
		fmt.Printf("#   note: %s\n", n)
	}
	suffix := ""
	if prov.Trace {
		suffix = "-trace"
	}
	if err := writeJSON(fmt.Sprintf("result-%s%s.json", prov.Workload, suffix),
		struct {
			Provenance provenance `json:"provenance"`
			Result     result     `json:"result"`
		}{prov, res}); err != nil {
		return err
	}
	line, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func main() {
	if os.Getenv(roleEnv) == "sut" {
		os.Exit(sutMain())
	}
	workload := flag.String("workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 25, "length of the measured window, after a discarded warm-up; BENCHMARK.json's run_seconds is the 25 it was calibrated at")
	// Not a bool flag: the driver passes the value as its own argument.
	trace := flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics; 0: the end-to-end metrics")
	aa := flag.Int("aa", 0, "A/A calibration: two sets of this many runs of every workload, each run with another seed; prints spreads and the bounds that follow")
	write := flag.Bool("write", false, "with -aa: store the report as benchmark/AA.md and regenerate BENCHMARK.json with its bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	// The driver keeps to the last CPU, where the serial workloads'
	// children join it (see childCPUs).
	if cpus = allowedCPUs(); len(cpus) >= 2 {
		if err := pinThreads(cpus[len(cpus)-1:]); err != nil {
			fatalf("pinning the driver to CPU %d: %v", cpus[len(cpus)-1], err)
		}
		runtime.GOMAXPROCS(1)
	}
	if *aa > 0 {
		if err := calibrate(*aa, *seed, *seconds, *write); err != nil {
			fatalf("%v", err)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if _, ok := workloadWhy[*workload]; !ok {
		fatalf("unknown workload %q; want one of %v or all", *workload, workloadNames)
	}
	for _, w := range names {
		res, prov, err := runOnce(w, *seed, *seconds, *trace != 0)
		if err != nil {
			fatalf("%s: %v", w, err)
		}
		if err := report(res, prov); err != nil {
			fatalf("%v", err)
		}
	}
}
