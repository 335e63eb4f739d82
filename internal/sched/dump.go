package sched

import (
	"fmt"
	"sort"
	"strings"
)

// ThreadInfo is a snapshot of one thread for debugging dumps.
type ThreadInfo struct {
	ID      ThreadID
	Name    string
	Status  string // "runnable", "parked(reason)", "done"
	Mask    MaskState
	Pending int
	// StackDepth is the continuation-stack depth.
	StackDepth int
}

// String renders one line of a thread dump.
func (ti ThreadInfo) String() string {
	name := ti.Name
	if name == "" {
		name = "-"
	}
	return fmt.Sprintf("%-10s %-14s %-10s mask=%-9s pending=%d stack=%d",
		ti.ID, name, ti.Status, ti.Mask, ti.Pending, ti.StackDepth)
}

// ThreadDump snapshots every live thread, ordered by ID — the
// moral equivalent of GHC's listThreads/threadStatus, for operational
// debugging of servers built on the runtime. Must run inside the
// scheduler (External callback) or before/after RunMain. Threads owned
// by another shard are read without stopping it: their lines are exact
// when that shard is idle and advisory while it runs.
func (rt *RT) ThreadDump() []ThreadInfo {
	var out []ThreadInfo
	rt.eng.table.each(func(t *Thread) {
		status := "runnable"
		switch t.status {
		case statusParked:
			status = "parked(" + t.park.kind.String() + ")"
		case statusDone:
			status = "done"
		}
		out = append(out, ThreadInfo{
			ID:         t.id,
			Name:       t.name,
			Status:     status,
			Mask:       t.mask,
			Pending:    len(t.pending),
			StackDepth: len(t.stack),
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DumpString renders the whole dump.
func (rt *RT) DumpString() string {
	var b strings.Builder
	for _, ti := range rt.ThreadDump() {
		b.WriteString(ti.String())
		b.WriteByte('\n')
	}
	return b.String()
}
