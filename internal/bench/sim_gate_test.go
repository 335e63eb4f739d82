package bench_test

import (
	"os"
	"strconv"
	"testing"

	"asyncexc/internal/bench"
)

// TestSimOverheadGate is the CI gate on the S2 suite: on every gated
// (one-shard) row, attaching a schedule recorder must cost less than 10%
// of the recorder-off rate. Both sides are measured back to back in
// this process, so no cross-machine normalization is needed — but it
// is still wall clock, so it hides behind SIM_GATE=1 (the CI sim job
// sets it). Ambient load on a shared runner swings single ratios by
// ±15%, far more than the true overhead, so each row gets up to
// three attempts and passes on its best ratio: noise clears a row on
// some attempt, while a real regression (an allocation or lock on the
// observe path) fails all three.
func TestSimOverheadGate(t *testing.T) {
	if os.Getenv("SIM_GATE") == "" {
		t.Skip("wall-clock gate; set SIM_GATE=1 to run (CI sim job does)")
	}
	const threshold = 0.90
	const attempts = 3
	best := map[string]float64{}
	for attempt := 1; attempt <= attempts; attempt++ {
		table := bench.SimOverhead(bench.ShortSimOverheadConfig())
		over := 0
		for _, row := range table.Rows {
			// workload, shards, off, on, unit, overhead, gated
			if len(row) < 7 || row[6] != "yes" {
				continue
			}
			key := row[0] + "/" + row[1]
			off, err1 := strconv.ParseFloat(row[2], 64)
			on, err2 := strconv.ParseFloat(row[3], 64)
			if err1 != nil || err2 != nil || off <= 0 {
				t.Fatalf("S2 row %v: unparseable rates", row)
			}
			ratio := on / off
			if ratio > best[key] {
				best[key] = ratio
			}
			if best[key] < threshold {
				over++
			}
			t.Logf("attempt %d %s: ratio %.2f (best %.2f)", attempt, key, ratio, best[key])
		}
		if over == 0 {
			return
		}
		t.Logf("attempt %d: %d row(s) over budget, retrying", attempt, over)
	}
	for key, ratio := range best {
		if ratio < threshold {
			t.Errorf("recording overhead over budget on %s: best ratio %.2f < %.2f across %d attempts",
				key, ratio, threshold, attempts)
		}
	}
}
