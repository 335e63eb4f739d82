package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The children a run spawns are this test binary again.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "sut" {
		os.Exit(sutMain())
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload, untraced and traced, with windows of
// half a second and asserts structure only — no timing: every name
// BENCHMARK.json declares is printed once with its declared unit, and
// nothing else; no op fails; the result line survives a round trip.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	// The file is generated from the tables in metrics.go; only the
	// calibrated numbers may differ from a fresh rendering.
	fresh := buildManifest(mf.RunSeconds, nil)
	for i := range mf.EndToEnd {
		if i < len(fresh.EndToEnd) {
			fresh.EndToEnd[i].Bound = mf.EndToEnd[i].Bound
		}
	}
	if !reflect.DeepEqual(mf, fresh) {
		t.Fatalf("BENCHMARK.json is out of step with metrics.go; regenerate it with -aa N -write")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(mf.EndToEnd) > 16 || len(mf.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics: over the limits", len(mf.EndToEnd), len(mf.PerLayer))
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, e := range mf.EndToEnd {
		declared[false][e.Name] = e.Unit
		if e.Bound < 0 || e.Bound > maxBound {
			t.Errorf("%s: bound %v outside [0, %v]", e.Name, e.Bound, maxBound)
		}
	}
	for _, p := range mf.PerLayer {
		declared[true][p.Name] = p.Unit
	}
	for _, byName := range declared {
		for n := range byName {
			if !name.MatchString(n) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", n)
			}
		}
	}

	outDir = t.TempDir()
	for _, w := range mf.Workloads {
		for _, trace := range []bool{false, true} {
			res, prov, err := runOnce(w.Name, 7, 0.5, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, prov.Notes)
			}
			want := declared[trace]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				if got, ok := res.Metrics[n]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: %s: printed %+v, declared unit %q", w.Name, trace, n, got, unit)
				}
			}
			if trace && res.Metrics["driver.ok_frac"].Value != 1 {
				t.Errorf("%s: driver.ok_frac = %v", w.Name, res.Metrics["driver.ok_frac"].Value)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil || !reflect.DeepEqual(back, res) {
				t.Errorf("%s trace=%v: result line does not round-trip: %v", w.Name, trace, err)
			}
			if prov.Host == "" || prov.NProc < 1 || prov.GoVersion == "" || prov.Seed != 7 {
				t.Errorf("%s: incomplete provenance %+v", w.Name, prov)
			}
		}
	}
}

// TestWatchdog: a child that is alive but does not answer is killed and
// reported; the driver does not wait for it.
func TestWatchdog(t *testing.T) {
	c, err := spawnRaw(spec{Workload: "units", UnitScale: 1}) // answers after seconds of measuring
	if err != nil {
		t.Fatal(err)
	}
	defer c.abandon()
	var units map[string]float64
	if err := c.decode(&units, 20*time.Millisecond); err == nil || !strings.Contains(err.Error(), "did not answer") {
		t.Fatalf("decode of a silent child returned %v, want the watchdog's error", err)
	}
}

// TestBoundsRule applies the calibration's rule to made-up sets: a bound
// is three times the largest quartile spread, at least the largest move
// of a median and at least 5%; the ceiling stands in for a larger one as
// long as it covers one and a half spreads and the move; setup_s takes
// the largest bound; and a reading the ceiling does not cover is an
// error, not a clipped number.
func TestBoundsRule(t *testing.T) {
	steady := func() aaRuns {
		set := aaRuns{}
		for _, w := range workloadNames {
			set[w] = map[string][]float64{}
			for _, d := range endToEnd {
				set[w][d.Name] = []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
			}
		}
		return set
	}
	sets := []aaRuns{steady(), steady()}
	sets[0][wlScatter]["typical_rss_mb"] = []float64{98, 98, 98, 100, 100, 100, 100, 102, 102, 102}   // quartile spread 4%: 0.12
	sets[0][wlScatter]["throughput_ops_s"] = []float64{95, 95, 95, 100, 100, 100, 100, 105, 105, 105} // 10%: wants 0.30, gets the ceiling
	sets[1][wlHello]["latency_p50_us"] = []float64{108, 108, 108, 108, 108, 108, 108, 108, 108, 108}  // moved by 8%
	sets[1][wlHello]["setup_s"] = []float64{50, 60, 70, 80, 90, 110, 120, 130, 140, 150}              // wide, and exempt
	got, err := bounds(needs(endToEnd, sets))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 0.25, "throughput_ops_s": 0.25, "latency_p50_us": 0.08, "cpu_us_per_op": 0.05, "typical_rss_mb": 0.12}
	for name, b := range want {
		if got[name] != b {
			t.Errorf("%s: bound %v, want %v", name, got[name], b)
		}
	}
	sets[0][wlBroker]["cpu_us_per_op"] = []float64{90, 90, 90, 100, 100, 100, 100, 110, 110, 110} // 20%: one and a half are 0.30
	if _, err := bounds(needs(endToEnd, sets)); err == nil || !strings.Contains(err.Error(), "cpu_us_per_op must have 0.30") {
		t.Errorf("a reading the ceiling does not cover returned %v, want an error naming cpu_us_per_op", err)
	}
}
