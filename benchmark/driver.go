package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"time"
)

// child is a system under test in its own process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *json.Decoder
	enc   *json.Encoder
	ready ready
}

// spawnRaw starts a fresh child and hands it sp.
func spawnRaw(sp spec) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"=sut")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: json.NewDecoder(bufio.NewReaderSize(stdout, 1<<16)), enc: json.NewEncoder(stdin)}
	if err := c.enc.Encode(sp); err != nil {
		c.abandon()
		return nil, fmt.Errorf("writing spec: %w", err)
	}
	return c, nil
}

// spawn starts a fresh child for sp and waits until it says ready.
func spawn(sp spec) (*child, error) {
	c, err := spawnRaw(sp)
	if err != nil {
		return nil, err
	}
	r, err := c.read()
	if err != nil || r.Ready == nil {
		c.abandon()
		return nil, fmt.Errorf("%s child never became ready: %v", sp.Workload, err)
	}
	c.ready = *r.Ready
	return c, nil
}

// decode waits for the child's next line, for at most limit. A child
// whose runtime is wedged but has not exited would otherwise block the
// driver for good; it is killed instead, which ends the read.
func (c *child) decode(v any, limit time.Duration) error {
	watchdog := time.AfterFunc(limit, func() { c.cmd.Process.Kill() })
	err := c.out.Decode(v)
	if !watchdog.Stop() {
		return fmt.Errorf("child did not answer within %v and was killed", limit)
	}
	if err != nil {
		// EOF here means the child exited: its own message is on stderr.
		return fmt.Errorf("child went away: %w", err)
	}
	return nil
}

func (c *child) read() (reply, error) {
	var r reply
	if err := c.decode(&r, callDeadline); err != nil {
		return r, err
	}
	if r.Err != "" {
		return r, errors.New(r.Err)
	}
	return r, nil
}

func (c *child) call(cmd string) (reply, error) {
	if err := c.enc.Encode(request{Cmd: cmd}); err != nil {
		return reply{}, fmt.Errorf("child went away: %w", err)
	}
	return c.read()
}

// wait closes the pipe and waits for the child to end.
func (c *child) wait() error {
	c.stdin.Close()
	return c.cmd.Wait()
}

// abandon kills a child that is no longer of use and reaps it.
func (c *child) abandon() {
	c.cmd.Process.Kill()
	c.stdin.Close()
	c.cmd.Wait()
}

// measurement is everything one child's window produced.
type measurement struct {
	setups    []float64 // seconds, one per spawn
	ticks     []tick    // slice boundaries; HTTP workloads: clock and op counts are the driver's
	before    snapshot
	after     snapshot
	fin       final
	attempted int64
	failed    int64
	notes     []string
	samples   summary  // latency and kill percentiles per slice
	ops       []httpOp // HTTP workloads: every op made, warm-up included
}

// measure runs one workload once: spawn (setupRounds times, keeping the
// last child), warm up, measure for window, stop, check.
func measure(sp spec, window time.Duration) (*measurement, error) {
	sp.CPUs = childCPUs(sp.Workload)
	m := &measurement{}
	var c *child
	for i := range setupRounds {
		t0 := time.Now()
		next, err := spawn(sp)
		if err != nil {
			return nil, err
		}
		if next.ready.Addr != "" {
			// Ready means accepting: one request must come back.
			if op := (&httpClient{addr: next.ready.Addr}).do("/hello?t=0", -1, 200, "hello 0\n"); !op.ok {
				next.abandon()
				return nil, fmt.Errorf("%s: first request failed: %s", sp.Workload, op.why)
			}
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			next.abandon() // spawned only to time its set-up
			continue
		}
		c = next
	}
	defer func() {
		if c != nil {
			c.abandon()
		}
	}()

	warmup := min(2*time.Second, window/10)
	slices := max(4, int(window/time.Second))
	var load *httpLoad
	if _, err := c.call("start"); err != nil {
		return nil, err
	}
	if c.ready.Addr != "" {
		load = startHTTPLoad(sp, c.ready.Addr)
		defer load.halt()
	}
	time.Sleep(warmup)

	r, err := c.call("snap")
	if err != nil {
		return nil, err
	}
	m.before = *r.Snap
	takeTick := func() error {
		r, err := c.call("tick")
		if err != nil {
			return err
		}
		t := *r.Tick
		if load != nil {
			t.TNs, t.LoadOps, t.ProbeOps = nowNs(), load.loadDone.Load(), load.probeDone.Load()
		}
		m.ticks = append(m.ticks, t)
		return nil
	}
	begin := time.Now()
	if err := takeTick(); err != nil {
		return nil, err
	}
	for i := 1; i <= slices; i++ {
		time.Sleep(time.Until(begin.Add(window * time.Duration(i) / time.Duration(slices))))
		if err := takeTick(); err != nil {
			return nil, err
		}
	}
	if r, err = c.call("snap"); err != nil {
		return nil, err
	}
	m.after = *r.Snap
	if load != nil {
		m.ops = load.halt()
	}
	if r, err = c.call("stop"); err != nil {
		return nil, err
	}
	m.fin = *r.Final
	err = c.wait()
	c = nil
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", sp.Workload, err)
	}
	m.tally()
	return m, nil
}

// tally folds the child's own checks and, for HTTP workloads, the
// driver's per-op verdicts into attempted/failed and the sample sets.
func (m *measurement) tally() {
	m.failed, m.notes = m.fin.Failed, m.fin.Notes
	if m.ops == nil {
		m.attempted, m.samples = m.fin.Attempted, m.fin.Samples
		return
	}
	sort.Slice(m.ops, func(i, j int) bool { return m.ops[i].end < m.ops[j].end })
	var samples sampler
	next := 0 // the tick that ends the slice ops are falling into
	why := map[string]int{}
	for i := range m.ops {
		op := &m.ops[i]
		for next < len(m.ticks) && op.end >= m.ticks[next].TNs {
			samples.cut()
			next++
		}
		if op.probe && op.ok {
			// The paper's headline property: from the instant the
			// exception was due to the client seeing the outcome.
			if op.seq >= len(m.fin.ProbeArmed) || m.fin.ProbeArmed[op.seq] == 0 || m.fin.ProbeReleased[op.seq] == 0 {
				op.ok, op.why = false, "probe answered but its victim was never armed and released"
			} else {
				op.killUs = float64(op.end-(m.fin.ProbeArmed[op.seq]+int64(probeDeadline))) / 1e3
			}
		}
		m.attempted++
		switch {
		case !op.ok:
			m.failed++
			why[op.why]++
		case op.start < m.ticks[0].TNs:
			// verified, but it began during warm-up
		case op.probe:
			samples.addKill(op.killUs)
		case op.timed:
			samples.addLat(float64(op.end-op.start) / 1e3)
		}
	}
	for ; next < len(m.ticks); next++ {
		samples.cut() // no op ended after this tick
	}
	m.samples = samples.summary()
	reasons := make([]string, 0, len(why))
	for w, n := range why {
		reasons = append(reasons, fmt.Sprintf("%d ops: %s", n, w))
	}
	sort.Strings(reasons)
	m.notes = append(m.notes, reasons...)
}

// perSlice applies f to every pair of neighbouring ticks.
func (m *measurement) perSlice(f func(a, b tick) float64) []float64 {
	out := make([]float64, 0, len(m.ticks)-1)
	for i := 1; i < len(m.ticks); i++ {
		out = append(out, f(m.ticks[i-1], m.ticks[i]))
	}
	return out
}

// throughputs and cpuPerOp are the two metrics read off the ticks.
func (m *measurement) throughputs() []float64 {
	return m.perSlice(func(a, b tick) float64 {
		return ratio(float64(b.LoadOps-a.LoadOps), float64(b.TNs-a.TNs)/1e9)
	})
}

func (m *measurement) cpuPerOp() []float64 {
	return m.perSlice(func(a, b tick) float64 {
		return ratio(float64(b.CPUNs-a.CPUNs)/1e3, float64(b.LoadOps-a.LoadOps+b.ProbeOps-a.ProbeOps))
	})
}

// overSlices is the median over the window's slices of one of their
// percentiles: the ordinary second, where readings reports the good one.
func (m *measurement) overSlices(f func(sliceStats) float64) float64 {
	xs := make([]float64, len(m.samples.Slices))
	for i, s := range m.samples.Slices {
		xs[i] = f(s)
	}
	return median(xs)
}

// readings computes every end-to-end reading, gated or not, under its
// end-to-end name. A timing is computed per slice and the run's value is
// the mean of the better fifth of the slices (see goodFifth).
func (m *measurement) readings() map[string]float64 {
	var p50, p90, kill []float64
	for _, s := range m.samples.Slices {
		p50, p90, kill = append(p50, s.LatP50), append(p90, s.LatP90), append(kill, s.KillP50)
	}
	rss := make([]float64, len(m.ticks))
	for i, t := range m.ticks {
		rss[i] = t.RSSPeakMB
	}
	return map[string]float64{
		"setup_s":          median(append([]float64(nil), m.setups...)),
		"throughput_ops_s": goodFifth(m.throughputs(), true),
		"latency_p50_us":   goodFifth(p50, false),
		"latency_p90_us":   goodFifth(p90, false),
		"kill_p50_us":      goodFifth(kill, false),
		"cpu_us_per_op":    goodFifth(m.cpuPerOp(), false),
		// The memory the child holds in an ordinary second of the window,
		// and the most it ever held: the first tick's mark goes back to
		// the exec, so set-up and warm-up are in the peak.
		"typical_rss_mb": median(append([]float64(nil), rss[1:]...)),
		"peak_rss_mb":    slices.Max(rss),
	}
}

// windowOps is the number of ops (load and probe) inside the window,
// the divisor of every per-op count.
func (m *measurement) windowOps() float64 {
	a, b := m.ticks[0], m.ticks[len(m.ticks)-1]
	return float64(b.LoadOps - a.LoadOps + b.ProbeOps - a.ProbeOps)
}
