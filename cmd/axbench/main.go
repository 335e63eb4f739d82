// Command axbench regenerates the experiment tables of EXPERIMENTS.md:
// deterministic, step-counted reconstructions of every figure-level and
// claim-level artifact of "Asynchronous Exceptions in Haskell"
// (PLDI 2001). Wall-clock numbers live in the Go benchmarks
// (go test -bench=.); this command reports scheduler-step counts, which
// are exact and machine-independent — except P1, the parallel-engine
// speedup table, which is necessarily wall-clock.
//
// Usage:
//
//	axbench            # run every experiment
//	axbench -run E9    # run one experiment by ID (E1, E6, E7, E8, E9, S1, T1, T2, F4, C1, P1, R1, O1, N1, A1, H1, P2)
//	axbench -seeds 500 # widen the lock-race schedule sweep
//	axbench -run P1 -write                    # splice P1 into EXPERIMENTS.md
//	axbench -run P1 -json BENCH_parallel.json # record results as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"asyncexc/internal/bench"
)

func main() {
	run := flag.String("run", "", "experiment ID to run (default: all)")
	seeds := flag.Int("seeds", defaultSeeds, "random schedules for the lock-race experiment")
	netRounds := flag.Int("net-rounds", 200, "remote-kill rounds for the cluster latency experiment")
	brokerEvents := flag.Int("broker-events", 1<<16, "events per topic for the actor broker experiment")
	write := flag.Bool("write", false, "splice the selected tables into EXPERIMENTS.md (between <!-- ID:begin/end --> markers)")
	jsonPath := flag.String("json", "", "also write the selected tables as JSON to this path")
	flag.Parse()

	var ids []string
	var tables []*bench.Table
	for _, e := range experiments(*seeds, *netRounds, *brokerEvents) {
		if *run != "" && !strings.EqualFold(*run, e.id) && !strings.EqualFold(*run, "E2") {
			continue
		}
		if *run != "" && strings.EqualFold(*run, "E2") && e.id != "E1" {
			continue
		}
		t := e.build()
		t.Fprint(os.Stdout)
		ids, tables = append(ids, e.id), append(tables, t)
	}
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "axbench: unknown experiment %q\n", *run)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, tables); err != nil {
			fmt.Fprintf(os.Stderr, "axbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *write {
		for k, t := range tables {
			if err := splice("EXPERIMENTS.md", ids[k], t); err != nil {
				fmt.Fprintf(os.Stderr, "axbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// defaultSeeds is E1's schedule count, the one its EXPERIMENTS.md region
// is rendered with.
const defaultSeeds = 300

// experiment is one table axbench can render.
type experiment struct {
	id    string
	build func() *bench.Table
}

// stepTables are the tables that count scheduler steps and nothing
// else: the same code renders them byte for byte, so their regions in
// EXPERIMENTS.md double as a golden check (main_test.go).
var stepTables = []string{"E1", "E6", "E7", "E8", "E9", "S1", "T1", "T2", "F4", "V1", "C1", "R1"}

// experiments lists every table in output order; seeds, netRounds and
// brokerEvents size E1, N1 and A1.
func experiments(seeds, netRounds, brokerEvents int) []experiment {
	return []experiment{
		{"E1", func() *bench.Table { return bench.LockRace(seeds) }},
		{"E6", func() *bench.Table { return bench.TimeoutNesting(8) }},
		{"E7", func() *bench.Table { return bench.MaskFrames([]int{10, 100, 1000, 10000}) }},
		{"E8", func() *bench.Table { return bench.ThrowToDesigns([]int{0, 100, 1000, 10000}) }},
		{"E9", func() *bench.Table { return bench.PollingVsAsync([]int{1, 2, 4, 8, 16, 64}, 2000, 4, 1000) }},
		{"S1", func() *bench.Table { return bench.SupervisorRestarts([]int{1, 4, 16}) }},
		{"T1", func() *bench.Table { return bench.MVarOps(10000) }},
		{"T2", func() *bench.Table { return bench.ForkCost([]int{100, 1000, 10000}) }},
		{"F4", func() *bench.Table { return bench.RuleCoverage() }},
		{"V1", func() *bench.Table { return bench.EitherVerification() }},
		{"C1", func() *bench.Table { return bench.Conformance(25) }},
		{"P1", func() *bench.Table { return bench.ParallelSpeedup([]int{1, 2, 4, 8}) }},
		{"R1", func() *bench.Table { return bench.Resilience(1000) }},
		{"O1", func() *bench.Table { return bench.ObsOverhead(20000) }},
		{"N1", func() *bench.Table { return bench.RemoteThrowLatency(netRounds) }},
		{"A1", func() *bench.Table { return bench.ActorBroker(brokerEvents) }},
		{"H1", func() *bench.Table { return bench.HotLoop(bench.DefaultHotLoopConfig()) }},
		{"P2", func() *bench.Table { return bench.Promises(bench.DefaultPromisesConfig()) }},
		{"S2", func() *bench.Table { return bench.SimOverhead(bench.DefaultSimOverheadConfig()) }},
	}
}

// writeJSON records the tables (raw cells plus metadata) as a JSON
// artifact — CI stores the P1 run as BENCH_parallel.json and the N1
// run as BENCH_cluster.json.
func writeJSON(path string, tables []*bench.Table) error {
	data, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// splice replaces the region between "<!-- id:begin -->" and
// "<!-- id:end -->" in the markdown file with the freshly rendered
// table; id is the experiment's -run name. Missing markers are an
// error, not an append: the document decides where regenerated output
// lives.
func splice(path, id string, t *bench.Table) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s := string(doc)
	i, j, err := region(s, id)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return os.WriteFile(path, []byte(s[:i]+regionBody(t)+s[j:]), 0o644)
}

// region locates the text between doc's "<!-- id:begin -->" and
// "<!-- id:end -->" markers: doc[i:j].
func region(doc, id string) (i, j int, err error) {
	begin := fmt.Sprintf("<!-- %s:begin -->", id)
	end := fmt.Sprintf("<!-- %s:end -->", id)
	i = strings.Index(doc, begin)
	j = strings.Index(doc, end)
	if i < 0 || j < i {
		return 0, 0, fmt.Errorf("markers %s/%s not found", begin, end)
	}
	return i + len(begin), j, nil
}

// regionBody is the text a table's region holds: its render, fenced.
func regionBody(t *bench.Table) string { return "\n```\n" + t.String() + "```\n" }
