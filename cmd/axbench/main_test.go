package main

import (
	"os"
	"testing"
)

// TestStepTablesMatchExperiments renders every step-counted table and
// compares it with its <!-- ID:begin/end --> region of EXPERIMENTS.md.
// The tables count scheduler steps, so one step more or less anywhere
// they reach — a combinator, a primitive, the delivery rule — fails
// here. After a change that moves a step on purpose, regenerate the
// region with `go run ./cmd/axbench -run ID -write` and say why.
func TestStepTablesMatchExperiments(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	build := map[string]experiment{}
	for _, e := range experiments(defaultSeeds, 0) {
		build[e.id] = e
	}
	for _, id := range stepTables {
		i, j, err := region(string(doc), id)
		if err != nil {
			t.Errorf("EXPERIMENTS.md: %v", err)
			continue
		}
		got, want := regionBody(build[id].build()), string(doc[i:j])
		if got != want {
			t.Errorf("%s render differs from its EXPERIMENTS.md region\n got:%s\nwant:%s", id, got, want)
		}
	}
}
