package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// manifest is BENCHMARK.json. It is generated from the metric tables
// in metrics.go and the bounds an A/A calibration measured.
type manifest struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []manifestWork    `json:"workloads"`
	EndToEnd   []manifestBounded `json:"end_to_end"`
	PerLayer   []manifestMetric  `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifestBounded struct {
	manifestMetric
	Bound float64 `json:"bound"`
}

const manifestPath = "BENCHMARK.json"

var aaPath = filepath.Join("benchmark", "AA.md")

var workloadWhy = map[string]string{
	wlHello:   "flat httpd, handler work ~0: accept, fork, read, write, close through iomgr and the external-event door is all the work; resilience, supervise and obs are bypassed",
	wlGuarded: "axhttpd's default stack with a seeded mix of good and faulty requests: resilience, supervise, obs and the cancel path do most of the per-request work beside the same sockets",
	wlScatter: "in-process, serial engine, no sockets: fork, MVar, timer arm and cancel, throwTo, mask frames and unwinding in sched and core; iomgr and httpd are bypassed",
	wlBroker:  "in-process, parallel engine on 2 shards: long-lived actors parking on mailboxes, the cross-shard ring and batched sends in actor and broker; the only gated cover of the parallel engine",
}

const (
	minBound   = 0.05
	maxBound   = 0.25 // the driver's ceiling
	issueBound = 0.10 // what ISSUE.md hoped no bound would exceed
	wantRule   = 3    // the driver asks for spreads below a third of the bound
	mustRule   = 1.5  // below this many spreads a bound is refused
	aaSets     = 2    // the driver makes its ten runs per workload twice
)

// aaRuns are one set's readings: workload → reading → one value per run.
type aaRuns map[string]map[string][]float64

// worst is the largest value of something over workloads and sets, and
// where it was seen.
type worst struct {
	v     float64
	where string
}

func (w *worst) see(v float64, where string) {
	if v > w.v {
		w.v, w.where = v, where
	}
}

func (w worst) String() string {
	if w.where == "" {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%% (%s)", 100*w.v, w.where)
}

// need is what the rule makes of one reading.
type need struct {
	spread, moved worst   // largest quartile spread in a set; largest move of a median from one set to the next
	want, must    float64 // max(5%, 3 × spread, moved) and max(1.5 × spread, moved), rounded up to whole percents
	bound         float64 // want, or the ceiling where want is above it
}

// worsening is how far b is worse than a, in the direction d calls
// worse, as a share of a; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// needs applies the rule to every reading of defs. The driver checks a
// benchmark twice over: each set's quartile spread must stay within the
// bound (setup_s excepted), and the second set's median may not be worse
// than the first's by more than the bound; and it asks for spreads below
// a third of the bound. So a reading's bound is
//
//	want = max(5%, 3 × the largest spread seen, the largest move of a median seen)
//
// the move taken whichever way it went, because the box drifts and the
// sets could as well have come in the other order. Where want is above
// the driver's ceiling the ceiling is the bound, on one condition:
//
//	must = max(1.5 × the largest spread, the largest move) ≤ the ceiling
//
// A spread estimated from ten runs is good to a factor of about 1.5, so
// below must the driver's own sets would overstep the bound too often;
// then there is no bound to ship, and that is an error, not a number.
// setup_s follows the driver's instruction instead: its spread does not
// count, and it gets the largest bound of all.
func needs(defs []metricDef, sets []aaRuns) map[string]need {
	percent := func(x float64) float64 { return math.Ceil(100*x-1e-9) / 100 }
	out := map[string]need{}
	for _, d := range defs {
		var n need
		for _, w := range workloadNames {
			for s, set := range sets {
				if d.Name != "setup_s" {
					n.spread.see(quartileSpread(set[w][d.Name]), fmt.Sprintf("%s, set %d", w, s+1))
				}
				if s > 0 {
					a := median(append([]float64(nil), sets[s-1][w][d.Name]...))
					b := median(append([]float64(nil), set[w][d.Name]...))
					n.moved.see(max(worsening(d, a, b), worsening(d, b, a)), w)
				}
			}
		}
		n.want = percent(max(minBound, wantRule*n.spread.v, n.moved.v))
		n.must = percent(max(mustRule*n.spread.v, n.moved.v))
		n.bound = min(n.want, maxBound)
		out[d.Name] = n
	}
	return out
}

// bounds turns the gated readings' needs into BENCHMARK.json's bounds.
// A reading the ceiling does not cover is an error: it has to be made
// steadier or moved to the ungated table. The map is returned, for the
// report, either way.
func bounds(by map[string]need) (map[string]float64, error) {
	out := map[string]float64{}
	var over []string
	for _, d := range endToEnd {
		n := by[d.Name]
		if n.must > maxBound {
			over = append(over, fmt.Sprintf("%s must have %.2f: spread %v, move %v", d.Name, n.must, n.spread, n.moved))
		}
		out[d.Name] = n.bound
		out["setup_s"] = max(out["setup_s"], n.bound)
	}
	if len(over) > 0 {
		return out, fmt.Errorf("the driver's ceiling of %.2f does not cover these, nothing written — make them steadier or move them to ungated in metrics.go:\n  %s",
			maxBound, strings.Join(over, "\n  "))
	}
	return out, nil
}

// aaSet runs every workload n times, each run with another seed.
func aaSet(n int, first int64, window time.Duration) (aaRuns, error) {
	set := aaRuns{}
	for _, w := range workloadNames {
		set[w] = map[string][]float64{}
		for i := range n {
			m, err := measure(spec{Workload: w, Seed: first + int64(i)}, window)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w, first+int64(i), err)
			}
			if m.failed > 0 {
				return nil, fmt.Errorf("%s seed %d: %d of %d ops failed: %v", w, first+int64(i), m.failed, m.attempted, m.notes)
			}
			for k, v := range m.readings() {
				set[w][k] = append(set[w][k], v)
			}
			fmt.Fprintf(os.Stderr, "aa: %s run %d/%d done\n", w, i+1, n)
		}
	}
	return set, nil
}

// calibrate is the A/A run, made the way the driver makes it: aaSets
// sets, one after the other, of n runs per workload on the unchanged
// tree, each run with another seed. It prints every reading's min,
// median, max, quartile spread and range per set, how the medians moved
// from set to set, and the bound the rule (see needs) gives each gated
// reading; write stores that report as benchmark/AA.md and regenerates
// BENCHMARK.json with those bounds.
func calibrate(n int, seed int64, seconds float64, write bool) error {
	if n < 6 {
		return fmt.Errorf("-aa needs at least 6 runs, got %d", n)
	}
	began := time.Now()
	window := time.Duration(seconds * float64(time.Second))
	defs := append(append([]metricDef(nil), endToEnd...), ungated...)
	gated := map[string]bool{}
	for _, d := range endToEnd {
		gated[d.Name] = true
	}
	mark := func(d metricDef) string {
		if gated[d.Name] {
			return d.Name
		}
		return d.Name + " *"
	}
	prov := newProvenance("all", false, seed, seconds)
	var doc strings.Builder
	emit := func(format string, a ...any) {
		s := fmt.Sprintf(format, a...)
		fmt.Print(s) // as it comes, for whoever is watching
		doc.WriteString(s)
	}
	emit("# A/A calibration\n\n")
	emit("Written by `bash benchmark/run.sh -aa %d -seconds %g -seed %d -write`; do not edit.\n", n, seconds, seed)
	emit("%d sets, one after the other, of %d runs per workload of the same code, each run\n", aaSets, n)
	emit("with another seed and fresh children. `iqr/med` is the distance between the first and\n")
	emit("third quartile as Python's `statistics.quantiles(values, n=4)` gives them, as a share\n")
	emit("of the median: the driver's measure of spread. A reading marked `*` is not gated\n")
	emit("(`ungated` in metrics.go; the traced run prints it as `driver.<name>`).\n\n")
	emit("Host %s, %d CPUs, %s, commit %s, begun %s.\n\n", prov.Host, prov.NProc, prov.GoVersion, prov.Commit, prov.TakenAt)

	sets := make([]aaRuns, aaSets)
	for s := range sets {
		first := seed + int64(s*n)
		set, err := aaSet(n, first, window)
		if err != nil {
			return err
		}
		sets[s] = set
		emit("## Set %d (seeds %d–%d)\n\n```\n", s+1, first, first+int64(n)-1)
		for _, w := range workloadNames {
			emit("%-14s %-20s %14s %14s %14s %8s %8s\n", w, "reading", "min", "median", "max", "iqr/med", "range")
			for _, d := range defs {
				xs := append([]float64(nil), set[w][d.Name]...)
				sort.Float64s(xs)
				med := quantile(xs, 0.5)
				emit("%-14s %-20s %14.4f %14.4f %14.4f %7.1f%% %7.1f%%\n", "", mark(d), xs[0], med, xs[len(xs)-1],
					100*quartileSpread(xs), 100*ratio(xs[len(xs)-1]-xs[0], med))
			}
		}
		emit("```\n\nEvery run, the readings in the order of the tables:\n\n```\n")
		for _, w := range workloadNames {
			for i := range n {
				emit("%-14s seed %d ", w, first+int64(i))
				for _, d := range defs {
					emit(" %.6g", set[w][d.Name][i])
				}
				emit("\n")
			}
		}
		emit("```\n\n")
	}

	emit("## From set to set\n\n`worse` is the move of the median in the direction the reading calls worse.\n\n")
	emit("| workload | reading |")
	for s := range sets {
		emit(" median %d |", s+1)
	}
	emit(" worse |\n|---|---|%s\n", strings.Repeat("---:|", aaSets+1))
	for _, w := range workloadNames {
		for _, d := range defs {
			emit("| %s | %s |", w, mark(d))
			var meds []float64
			for _, set := range sets {
				meds = append(meds, median(append([]float64(nil), set[w][d.Name]...)))
				emit(" %.4f |", meds[len(meds)-1])
			}
			emit(" %+.1f%% |\n", 100*worsening(d, meds[0], meds[len(meds)-1]))
		}
	}

	by := needs(defs, sets)
	shipped, uncovered := bounds(by)
	emit("\n## Bounds\n\n")
	emit("want = max(%.0f%%, %d × the largest quartile spread, the largest move of a median either way): the\n", 100*minBound, wantRule)
	emit("driver asks for spreads below a third of the bound. Where want is above the driver's ceiling of\n")
	emit("%.0f%%, the ceiling is the bound as long as must = max(%.1f × the largest spread, the largest move)\n", 100*maxBound, mustRule)
	emit("is within it; otherwise the reading cannot be gated and nothing is written. `setup_s`: its spread\n")
	emit("does not count, and it takes the largest bound, as the driver instructs.\n\n")
	emit("| reading | largest spread | largest move | want | must | bound |\n|---|---|---|---:|---:|---|\n")
	for _, d := range defs {
		n := by[d.Name]
		ship := "not gated"
		if gated[d.Name] {
			switch b := shipped[d.Name]; {
			case n.must > maxBound:
				ship = "the ceiling does not cover it"
			case b > issueBound:
				ship = fmt.Sprintf("%.2f (looser than the %.2f ISSUE.md asked for)", b, issueBound)
			default:
				ship = fmt.Sprintf("%.2f", b)
			}
		}
		emit("| %s | %v | %v | %.2f | %.2f | %s |\n", mark(d), n.spread, n.moved, n.want, n.must, ship)
	}
	emit("\nWall time %.0f s.\n", time.Since(began).Seconds())
	if uncovered != nil {
		return uncovered
	}
	if !write {
		return nil
	}
	b, err := json.MarshalIndent(buildManifest(int(math.Round(seconds)), shipped), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(manifestPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(aaPath, []byte(doc.String()), 0o644)
}

// buildManifest renders the declaration of everything the benchmark
// prints, with the given bounds.
func buildManifest(runSeconds int, bounds map[string]float64) manifest {
	mf := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadNames {
		mf.Workloads = append(mf.Workloads, manifestWork{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		mf.EndToEnd = append(mf.EndToEnd, manifestBounded{manifestMetric{d.Name, d.Unit, d.Better}, bounds[d.Name]})
	}
	for _, d := range perLayer {
		mf.PerLayer = append(mf.PerLayer, manifestMetric{d.Name, d.Unit, d.Better})
	}
	return mf
}
