package main

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/httpd"
	"asyncexc/internal/obs"
)

// maxTracedRequests bounds the per-request stamp table of a traced
// run; requests beyond it are served but not stamped.
const maxTracedRequests = 1 << 17

// httpSUT is the server of both HTTP workloads. http-hello is the flat
// server with nothing installed; http-guarded is axhttpd's default
// production stack built from the same public calls cmd/axhttpd makes.
type httpSUT struct {
	sp   spec
	srv  *httpd.Server
	rec  *obs.Recorder // http-guarded only
	tree *httpd.Tree   // http-guarded only
	run  *running
	addr string

	mu       sync.Mutex
	armed    []int64 // by probe sequence number
	released []int64
	releases []int32 // times the victim's release ran: must be exactly 1

	stamps [][4]int64 // traced runs: by request id
}

func newHTTPSUT(sp spec) (*httpSUT, error) {
	s := &httpSUT{sp: sp}
	guarded := sp.Workload == wlGuarded
	if guarded {
		// axhttpd records events whenever -metrics is on, its default.
		s.rec = obs.NewRecorder(0)
		// All kinds but spawn (axhttpd -trace-mask=-spawn). A spawn event
		// carries the thread's name, the tree names every connection's
		// thread differently, and the recorder interns names by linear
		// scan: with spawn recorded a request costs 215 µs of CPU in the
		// first second and 640 µs in the thirtieth (defect (c) in
		// README.md), and the workload measures its own age.
		s.rec.SetKindMask(obs.AllKinds &^ obs.KindBit(obs.KindSpawn))
	}
	s.srv = httpd.New(httpd.Config{RequestTimeout: requestTimeout, Shards: 1, Observer: s.rec})
	if sp.Trace {
		s.stamps = make([][4]int64, maxTracedRequests)
		s.srv.Use(s.stampAround(0, 3)) // outermost: registered first
	}
	if guarded {
		s.srv.Use(httpd.Logged(func(string) {}))
		s.srv.Use(httpd.WithHeader("Server", "asyncexc-axhttpd"))
		s.srv.UseResilience(httpd.AdmissionConfig{
			MaxInFlight:    64,
			MaxWaiting:     16,
			RouteDeadlines: map[string]time.Duration{"/spin": probeDeadline},
			// /crash fails 4% of requests on purpose; no breaker may
			// open, or good traffic would be shed.
			BreakerThreshold: 1 << 30,
			BreakerWindow:    10 * time.Second,
			BreakerCooldown:  5 * time.Second,
			RetryAfter:       time.Second,
		})
	}
	handle := func(path string, h httpd.Handler) {
		if sp.Trace {
			h = s.stampAround(1, 2)(h) // innermost: around the handler itself
		}
		s.srv.Handle(path, h)
	}
	handle("/hello", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Return(httpd.Text(200, "hello "+query(r.Path)+"\n"))
	})
	if guarded {
		handle("/work", func(r httpd.Request) core.IO[httpd.Response] {
			x, _ := strconv.ParseUint(query(r.Path), 10, 64)
			return workHandler(x)
		})
		handle("/crash", func(httpd.Request) core.IO[httpd.Response] {
			return core.ThrowErrorCall[httpd.Response](crashMessage)
		})
		handle("/delay", func(r httpd.Request) core.IO[httpd.Response] {
			ms, _ := strconv.Atoi(query(r.Path))
			return core.Then(core.Sleep(time.Duration(ms)*time.Millisecond),
				core.Return(httpd.Text(200, fmt.Sprintf("slept %dms\n", ms))))
		})
		// Never answers: the admission layer's 25 ms route deadline
		// throws at it and answers 504 in its place.
		handle("/spin", func(r httpd.Request) core.IO[httpd.Response] {
			return core.Then(s.armProbe(r.Path), core.Map(s.parkedVictim(r.Path),
				func(core.Unit) httpd.Response { return httpd.Text(200, "unreachable\n") }))
		})
	} else {
		// The handler reaps its own victim with the paper's §7.3
		// Timeout and reports that it did.
		handle("/reap", func(r httpd.Request) core.IO[httpd.Response] {
			return core.Then(s.armProbe(r.Path), core.Map(core.Timeout(probeDeadline, s.parkedVictim(r.Path)),
				func(m core.Maybe[core.Unit]) httpd.Response {
					if m.IsJust {
						return httpd.Text(500, "victim returned\n")
					}
					return httpd.Text(200, "reaped\n")
				}))
		})
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = l.Addr().String()
	// The options httpd.Start builds for itself (its runtimeOptions is
	// not exported): real clock, the configured shards and observer.
	opts := core.RealTimeOptions()
	opts.Shards = 1
	opts.Observer = s.rec
	prog := s.srv.RunOn(l)
	if guarded {
		// What httpd.StartSupervised runs, keeping the tree handle for
		// the crash audit.
		prog = core.Bind(s.srv.SupervisedTree(l), func(tr *httpd.Tree) core.IO[core.Unit] {
			s.tree = tr
			return tr.Run()
		})
	}
	s.run = launch(opts, prog)
	return s, nil
}

const crashMessage = "deliberate handler crash"

// query returns what follows '=' in a request path, the one generated
// input every route takes.
func query(path string) string {
	if i := strings.IndexByte(path, '='); i >= 0 {
		return path[i+1:]
	}
	return ""
}

// workMix is one step of /work's checksum; the driver folds the same
// function to know the expected body.
func workMix(acc, k uint64) uint64 { return (acc^k)*0x9E3779B97F4A7C15 + 1 }

func workChecksum(x uint64) uint64 {
	for k := range uint64(workIters) {
		x = workMix(x, k)
	}
	return x
}

// workHandler does workIters rounds of Bracket around ModifyMVar: mask
// frames, MVar takes and puts, and catch frames, with no parking.
func workHandler(x uint64) core.IO[httpd.Response] {
	return core.Bind(core.NewMVar(x), func(acc core.MVar[uint64]) core.IO[httpd.Response] {
		rounds := make([]uint64, workIters)
		for k := range rounds {
			rounds[k] = uint64(k)
		}
		loop := core.ForM_(rounds, func(k uint64) core.IO[core.Unit] {
			return core.Bracket(core.Return(k),
				func(k uint64) core.IO[core.Unit] {
					return core.ModifyMVar(acc, func(a uint64) core.IO[uint64] { return core.Return(workMix(a, k)) })
				},
				func(uint64) core.IO[core.Unit] { return core.Return(core.UnitValue) })
		})
		return core.Then(loop, core.Map(core.Read(acc), func(a uint64) httpd.Response {
			return httpd.Text(200, fmt.Sprintf("work %d\n", a))
		}))
	})
}

// probeSlot returns the probe's sequence number, growing the tables.
func (s *httpSUT) probeSlot(path string) int {
	i, _ := strconv.Atoi(query(path))
	for len(s.armed) <= i {
		s.armed = append(s.armed, 0)
		s.released = append(s.released, 0)
		s.releases = append(s.releases, 0)
	}
	return i
}

// armProbe stamps the instant the probe's 25 ms deadline starts.
// http-hello arms its Timeout right after; http-guarded's admission
// layer armed the route deadline a few steps before the handler ran.
func (s *httpSUT) armProbe(path string) core.IO[core.Unit] {
	return lift(func() {
		s.mu.Lock()
		s.armed[s.probeSlot(path)] = nowNs()
		s.mu.Unlock()
	})
}

// parkedVictim parks forever on an MVar nobody fills, inside a Bracket
// whose release stamps the moment cleanup ran.
func (s *httpSUT) parkedVictim(path string) core.IO[core.Unit] {
	return core.Bind(core.NewEmptyMVar[core.Unit](), func(never core.MVar[core.Unit]) core.IO[core.Unit] {
		return core.Bracket(core.Return(core.UnitValue),
			func(core.Unit) core.IO[core.Unit] { return core.Take(never) },
			func(core.Unit) core.IO[core.Unit] {
				return lift(func() {
					s.mu.Lock()
					i := s.probeSlot(path)
					s.released[i] = nowNs()
					s.releases[i]++
					s.mu.Unlock()
				})
			})
	})
}

// stampAround is the benchmark-side span recorder of traced runs: a
// middleware that stamps slot in before and slot out after whatever it
// wraps, keyed by the request's X-Req header.
func (s *httpSUT) stampAround(in, out int) httpd.Middleware {
	return func(next httpd.Handler) httpd.Handler {
		return func(r httpd.Request) core.IO[httpd.Response] {
			id, err := strconv.Atoi(r.Headers["x-req"])
			if err != nil || id < 0 || id >= len(s.stamps) {
				return next(r)
			}
			// Delay: stamp when the wrapped action runs, not when an outer
			// layer builds it (the admission layer builds it twice).
			return core.Delay(func() core.IO[httpd.Response] {
				s.stamps[id][in] = nowNs()
				return core.Map(next(r), func(resp httpd.Response) httpd.Response {
					s.stamps[id][out] = nowNs()
					return resp
				})
			})
		}
	}
}

func (s *httpSUT) ready() ready         { return ready{Addr: s.addr} }
func (s *httpSUT) start()               {}
func (s *httpSUT) exited() <-chan error { return s.run.died }
func (s *httpSUT) tick() tick           { return takeTick(0, 0) }

func (s *httpSUT) snapshot() snapshot {
	sn := liveSnapshot(s.run.sys, s.run.done)
	sn.TimedOut = s.srv.Stats.TimedOut.Load()
	sn.Shed = s.srv.Stats.Shed.Load()
	if s.rec != nil {
		st := s.rec.Stats()
		sn.ObsRecorded, sn.ObsDropped = st.Recorded, st.Dropped
	}
	return sn
}

// stop shuts the server down with an asynchronous exception and audits
// what only the server can know: every victim's release ran exactly
// once, and the tree saw as many crashes as handlers that crashed.
func (s *httpSUT) stop() final {
	var f final
	err := s.run.kill()
	f.check(err == nil, "server stopped with: %v", err)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range s.releases {
		f.check(s.armed[i] == 0 || n == 1, "probe %d: release ran %d times", i, n)
	}
	if s.tree != nil {
		got, want := s.tree.Conns.Metrics.Crashes.Load(), uint64(s.srv.Stats.HandlerEx.Load())
		f.check(got == want, "supervision tree recorded %d crashes, handlers raised %d", got, want)
	}
	f.ProbeArmed, f.ProbeReleased = s.armed, s.released
	f.ServerStamps = s.stamps
	for len(f.ServerStamps) > 0 && f.ServerStamps[len(f.ServerStamps)-1] == [4]int64{} {
		f.ServerStamps = f.ServerStamps[:len(f.ServerStamps)-1]
	}
	return f
}
