package core_test

import (
	"testing"

	"asyncexc/internal/core"
	"asyncexc/internal/sched"
)

// constructed keeps every measured node reachable, so each build
// escapes to the heap exactly as a node handed to the runtime does.
var constructed sched.Node

func unitAgain() core.IO[core.Unit] { return core.Return(core.UnitValue) }

// TestConstructorAllocs pins what building one node costs: at most the
// node itself, and nothing for a node that carries no data. A wrapper
// closure around a typed continuation, or a return () boxed afresh,
// shows up here as one more allocation. Arguments are built outside
// the measured function; only construction is counted.
func TestConstructorAllocs(t *testing.T) {
	m := core.Return(7)
	n := core.Return(core.UnitValue)
	k := func(v int) core.IO[int] { return m }
	f := func(v int) string { return "" }
	h := func(core.Exception) core.IO[int] { return m }
	for _, c := range []struct {
		name  string
		want  float64
		build func() sched.Node
	}{
		{"Then", 1, func() sched.Node { return core.Then(m, n).Node() }},
		{"Void", 1, func() sched.Node { return core.Void(m).Node() }},
		{"Return(UnitValue)", 0, func() sched.Node { return core.Return(core.UnitValue).Node() }},
		{"Yield", 0, func() sched.Node { return core.Yield().Node() }},
		{"Delay", 0, func() sched.Node { return core.Delay(unitAgain).Node() }},
		{"Bind", 1, func() sched.Node { return core.Bind(m, k).Node() }},
		{"Map", 1, func() sched.Node { return core.Map(m, f).Node() }},
		{"Catch", 1, func() sched.Node { return core.Catch(m, h).Node() }},
	} {
		if got := testing.AllocsPerRun(100, func() { constructed = c.build() }); got != c.want {
			t.Errorf("%s allocates %.0f per construction, want %.0f", c.name, got, c.want)
		}
	}
}
