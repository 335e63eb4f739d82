package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/sched"
)

// Every system under test runs in a fresh child process: the driver
// re-executes its own binary with roleEnv set, writes one spec line to
// the child's stdin, and from then on exchanges one JSON line per
// command over stdin/stdout. The child's stderr is the driver's.
const roleEnv = "AXBENCH_ROLE"

// Workload names, as BENCHMARK.json lists them.
const (
	wlHello   = "http-hello"
	wlGuarded = "http-guarded"
	wlScatter = "core-scatter"
	wlBroker  = "broker-fanout"
)

var workloadNames = []string{wlHello, wlGuarded, wlScatter, wlBroker}

// Fixed workload constants. Timeouts are constants, not knobs, because
// one pending near timer changes the server's cost per request (defect
// (b) in README.md); varying them would change what is measured.
const (
	requestTimeout = 2 * time.Second       // httpd.Config.RequestTimeout
	probeDeadline  = 25 * time.Millisecond // in-handler Timeout / route deadline the kill probe waits out
	clientDeadline = 2 * time.Second       // every driver-side socket operation
	callDeadline   = 15 * time.Second      // every answer awaited from a child; the slowest honest one is broker-fanout's stop, up to 5 s of drain
	workIters      = 12                    // /work: Bracket+ModifyMVar iterations, ~200 interpreter steps
	// core-scatter's Timeout never fires. A cancelled Timeout keeps its
	// sleeper thread alive until the deadline passes, so the budget sets
	// the child's footprint: 1 s held ~60 MB and made runs of the same
	// code disagree by a quarter on this box, 250 ms holds ~25 MB.
	scatterTimeout = 250 * time.Millisecond
	scatterThreads = 16 // core-scatter requester green threads
	scatterYields  = 8  // winner's yields before it returns
	scatterProbe   = 8  // one op in 8 of a requester, drawn, is a kill probe
	scatterSample  = 16 // every 16th op's latency is kept
	brokerTopics   = 4
	brokerSubs     = 4
	brokerBatch    = 256
	brokerCredits  = 4    // publish batches in flight per topic
	brokerSample   = 1024 // every 1024th event carries a send stamp
	brokerProbeGap = 2 * time.Millisecond
	setupRounds    = 21 // child spawns per run; setup_s is their median
)

// spec is the first line the driver writes to a child.
type spec struct {
	Workload  string // a workload name, or "units" for the unit-cost child
	Seed      int64
	Trace     bool
	UnitScale float64 // "units" only: share of the full iteration counts
	CPUs      []int   // pin the child to these and size GOMAXPROCS to them; nil: leave both alone
}

// request is every later line.
type request struct {
	Cmd string // start | tick | snap | stop
}

// reply is one child→driver line; exactly one pointer is set, or Err.
type reply struct {
	Err   string    `json:",omitempty"`
	Ready *ready    `json:",omitempty"`
	Tick  *tick     `json:",omitempty"`
	Snap  *snapshot `json:",omitempty"`
	Final *final    `json:",omitempty"`
}

type ready struct {
	Addr string // HTTP workloads: the listener's address
}

// tick is a cheap sample taken at a slice boundary.
type tick struct {
	TNs      int64 // child wall clock, UnixNano
	CPUNs    int64 // child user+sys CPU so far
	LoadOps  int64 // in-process workloads: load ops completed so far
	ProbeOps int64 // in-process workloads: kill probes completed so far
	// The child's resident-set high-water mark since the previous tick;
	// since the exec, for the first.
	RSSPeakMB float64
}

// snapshot is the heavier read of public counters at the window's two
// ends; per-workload counts are its deltas.
type snapshot struct {
	Sched       sched.Stats // summed over shards (MailboxDepth: the max)
	TimedOut    int64       // httpd.Stats
	Shed        int64
	ObsRecorded uint64
	ObsDropped  uint64
	// runtime.MemStats.
	AllocBytes uint64
	Mallocs    uint64
	NumGC      uint32
	PauseNs    uint64
}

// final is the child's answer to stop: everything it measured or
// checked itself.
type final struct {
	Attempted int64 // ops the child generated itself (in-process workloads)
	Failed    int64
	Notes     []string // one line per failed check

	Samples summary // in-process workloads: latency and kill percentiles per slice

	// HTTP workloads: per probe sequence number, when its deadline was
	// armed and when the victim's release ran (UnixNano; 0 = never).
	ProbeArmed, ProbeReleased []int64
	// Traced HTTP runs: per request id, the four server-side stamps
	// outerIn, innerIn, innerOut, outerOut (UnixNano).
	ServerStamps [][4]int64

	// Traced in-process runs: named span durations in µs.
	Spans map[string][]float64
}

// check records a failed audit.
func (f *final) check(ok bool, format string, a ...any) {
	if !ok {
		f.Failed++
		f.Notes = append(f.Notes, fmt.Sprintf(format, a...))
	}
}

// sut is one system under test inside the child.
type sut interface {
	ready() ready
	start()               // begin generating load (in-process workloads)
	tick() tick           // a slice boundary; the first one opens the window
	snapshot() snapshot   // public counters
	stop() final          // end load, tear down, run the checks
	exited() <-chan error // the runtime ended on its own
}

func newSUT(sp spec) (sut, error) {
	switch sp.Workload {
	case wlHello, wlGuarded:
		return newHTTPSUT(sp)
	case wlScatter:
		return newScatterSUT(sp), nil
	case wlBroker:
		return newBrokerSUT(sp), nil
	}
	return nil, fmt.Errorf("unknown workload %q", sp.Workload)
}

// selfCPU is this process's user+sys CPU time.
func selfCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// takeRSSPeakMB returns this process's resident-set high-water mark
// (VmHWM) since the previous call — since the exec, for the first — and
// starts it afresh, so that every slice has a peak of its own. It is read
// inside the child because the ru_maxrss a process reports, to itself or
// to its parent, also covers the memory of the process that forked it, up
// to the exec. Where the mark cannot be reset it keeps growing and every
// call reads the peak so far.
func takeRSSPeakMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
			return 0
		}
		return float64(ru.Maxrss) / 1024
	}
	mb := 0.0
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			mb = kb / 1024
		}
	}
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // 5: reset the peak RSS
	return mb
}

// takeTick is the part of a tick every child shares.
func takeTick(loadOps, probeOps int64) tick {
	return tick{TNs: nowNs(), CPUNs: selfCPU(), LoadOps: loadOps, ProbeOps: probeOps, RSSPeakMB: takeRSSPeakMB()}
}

func nowNs() int64 { return time.Now().UnixNano() }

// lift runs f on the scheduler as one IO step.
func lift(f func()) core.IO[core.Unit] {
	return core.Lift(func() core.Unit { f(); return core.UnitValue })
}

// liveSnapshot reads a running system's counters on its own scheduler
// (an External event), the same way httpd.Running.SchedStats does; it
// falls back to a direct read once the runtime has ended.
func liveSnapshot(sys *core.System, done <-chan struct{}) snapshot {
	var per []sched.Stats
	ch := make(chan []sched.Stats, 1)
	select {
	case <-done:
		per = sys.ShardStats()
	default:
		sys.RT().External(func(rt *sched.RT) { ch <- rt.ShardStats() })
		select {
		case per = <-ch:
		case <-done:
			per = sys.ShardStats()
		}
	}
	var s snapshot
	for _, p := range per {
		s.Sched.Add(p)
	}
	// Stops the world for some tens of microseconds, twice per run.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.AllocBytes, s.Mallocs, s.NumGC, s.PauseNs = m.TotalAlloc, m.Mallocs, m.NumGC, m.PauseTotalNs
	return s
}

// fatalf ends the process the way the contract asks a failed run to
// end: a message on stderr, no result line, a non-zero code.
func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(1)
}
