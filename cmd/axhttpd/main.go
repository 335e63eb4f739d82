// Command axhttpd is the paper's §11 demonstration: a fault-tolerant
// HTTP server built on the asyncexc runtime, making heavy use of
// timeouts, green threads, and asynchronous exceptions. Slow or silent
// clients are reaped by composable Timeouts; handler failures become
// 500s; Ctrl-C converts the OS signal into an asynchronous
// ThreadKilled at the accept loop, which shuts the server down through
// its Finally.
//
// By default the server runs under an Erlang-style supervision tree
// (internal/supervise): the accept dispatcher is a Permanent child
// that is restarted if it crashes, and every connection is a Temporary
// child whose crash is recorded by the tree. -supervised=false falls
// back to the original flat fork-per-connection design.
//
// Routes:
//
//	/            — banner
//	/hello       — trivial response
//	/delay?ms=N  — sleeps N green-milliseconds then responds (the
//	               request timeout reaps it if N is too large)
//	/spin        — never responds (always reaped)
//	/race        — §7.2 EitherIO of a fast and a slow computation
//	/crash       — handler throws; under supervision the crash is
//	               recorded by the tree and answered with a 500
//	/stats       — live counters: server, scheduler, supervision tree
//	/metrics     — the same counters in Prometheus text exposition
//	               format (enabled with -metrics, default on), plus
//	               the pending-latency histogram
//	/trace/stream?ms=N — live runtime events as chunked NDJSON for N
//	               milliseconds (capped below the request timeout)
//
// With -trace-out FILE the runtime records scheduler and
// exception-delivery events (internal/obs) and writes them as a Chrome
// trace_event JSON file at shutdown; load it at chrome://tracing or
// https://ui.perfetto.dev to see every throwTo as a flow arrow from
// thrower to victim to catch frame. -trace-mask narrows which event
// kinds are recorded at the source. See docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/httpd"
	"asyncexc/internal/obs"
	"asyncexc/internal/sched"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request timeout")
	maxConns := flag.Int("maxconns", 256, "maximum concurrent connections")
	supervised := flag.Bool("supervised", true, "run under the supervision tree")
	shards := flag.Int("shards", 1, "execution shards (>1 selects the parallel work-stealing engine)")
	resilient := flag.Bool("resilience", true, "install the admission-control middleware (deadlines, bulkhead, breakers, shedding)")
	bulkhead := flag.Int("bulkhead", 64, "max requests in flight inside handlers (bulkhead capacity)")
	bulkheadWait := flag.Int("bulkhead-wait", 16, "max requests queued for a bulkhead slot before shedding")
	routeDeadline := flag.Duration("route-deadline", 0, "default per-route handler deadline (0 = none; /delay gets 1s regardless)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "failures within the window that trip a route's breaker")
	breakerWindow := flag.Duration("breaker-window", 10*time.Second, "sliding failure window per route breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-state cooldown before a breaker probes again")
	inflightWatermark := flag.Int("inflight-watermark", 0, "shed new arrivals at this many live connections (0 = off)")
	mailboxWatermark := flag.Int("mailbox-watermark", 0, "shed new arrivals at this shard mailbox depth (0 = off)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint stamped on shed (503) responses")
	metrics := flag.Bool("metrics", true, "serve Prometheus text exposition on /metrics")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file here at shutdown (enables event recording)")
	traceBuf := flag.Int("trace-buf", 0, "per-shard event ring capacity (0 = obs.DefaultRingCap); oldest events are dropped when it wraps")
	traceMask := flag.String("trace-mask", "all", "event kinds to record: a comma-separated include list (\"throwTo,deliver,catch\"), a \"-\"-prefixed exclude list (\"-park,-unpark\"), \"all\", or \"none\"")
	flag.Parse()

	var rec *obs.Recorder
	if *traceOut != "" || *metrics {
		rec = obs.NewRecorder(*traceBuf)
		mask, err := obs.ParseKindMask(*traceMask)
		if err != nil {
			log.Fatalf("-trace-mask: %v", err)
		}
		rec.SetKindMask(mask)
		if mask != obs.AllKinds {
			log.Printf("trace: recording kinds %s", obs.FormatKindMask(mask))
		}
	}

	srv := httpd.New(httpd.Config{
		Addr: *addr, RequestTimeout: *timeout, MaxConns: *maxConns, Shards: *shards,
		Observer: rec,
	})
	srv.Use(httpd.Logged(func(line string) { log.Print(line) }))
	srv.Use(httpd.WithHeader("Server", "asyncexc-axhttpd"))
	if *resilient {
		srv.UseResilience(httpd.AdmissionConfig{
			MaxInFlight:       *bulkhead,
			MaxWaiting:        *bulkheadWait,
			DefaultDeadline:   *routeDeadline,
			RouteDeadlines:    map[string]time.Duration{"/delay": time.Second},
			BreakerThreshold:  *breakerThreshold,
			BreakerWindow:     *breakerWindow,
			BreakerCooldown:   *breakerCooldown,
			InFlightWatermark: *inflightWatermark,
			MailboxWatermark:  *mailboxWatermark,
			RetryAfter:        *retryAfter,
		})
	}

	// Set once the supervised tree is live; /stats reads it.
	var tree atomic.Pointer[httpd.Tree]

	srv.Handle("/", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Return(httpd.Text(200,
			"asyncexc demo server (PLDI 2001, §11)\n"+
				"try /hello /delay?ms=100 /spin /race /crash /stats\n"))
	})
	srv.Handle("/hello", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Return(httpd.Text(200, "hello, "+r.Remote()+"\n"))
	})
	srv.Handle("/delay", func(r httpd.Request) core.IO[httpd.Response] {
		ms := 100
		if i := strings.Index(r.Path, "ms="); i >= 0 {
			if v, err := strconv.Atoi(r.Path[i+3:]); err == nil {
				ms = v
			}
		}
		return core.Then(core.Sleep(time.Duration(ms)*time.Millisecond),
			core.Return(httpd.Text(200, fmt.Sprintf("slept %dms\n", ms))))
	})
	srv.Handle("/spin", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Then(core.Sleep(24*time.Hour), core.Return(httpd.Text(200, "unreachable\n")))
	})
	srv.Handle("/race", func(r httpd.Request) core.IO[httpd.Response] {
		fast := core.Then(core.Sleep(10*time.Millisecond), core.Return("fast"))
		slow := core.Then(core.Sleep(10*time.Second), core.Return("slow"))
		return core.Bind(core.EitherIO(fast, slow), func(res core.Either[string, string]) core.IO[httpd.Response] {
			winner := res.Right
			if res.IsLeft {
				winner = res.Left
			}
			return core.Return(httpd.Text(200, "winner: "+winner+"\n"))
		})
	})
	srv.Handle("/crash", func(r httpd.Request) core.IO[httpd.Response] {
		return core.ThrowErrorCall[httpd.Response]("deliberate handler crash")
	})
	srv.Handle("/stats", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Bind(core.SchedStats(), func(st sched.Stats) core.IO[httpd.Response] {
			s := &srv.Stats
			body := fmt.Sprintf(
				"server: accepted=%d served=%d timedOut=%d errors=%d notFound=%d rejected=%d handlerExceptions=%d shed=%d deadlineHit=%d\n",
				s.Accepted.Load(), s.Served.Load(), s.TimedOut.Load(), s.Errors.Load(),
				s.NotFound.Load(), s.Rejected.Load(), s.HandlerEx.Load(),
				s.Shed.Load(), s.DeadlineHit.Load())
			body += fmt.Sprintf(
				"sched: steps=%d forks=%d throwTos=%d delivered=%d killed=%d supervisorRestarts=%d\n",
				st.Steps, st.Forks, st.ThrowTos, st.Delivered, st.Killed, st.SupervisorRestarts)
			body += fmt.Sprintf(
				"resilience: shed=%d retries=%d breakerOpen=%d deadlineExpired=%d\n",
				st.Shed, st.Retries, st.BreakerOpen, st.DeadlineExpired)
			return core.Bind(core.ShardSchedStats(), func(per []sched.Stats) core.IO[httpd.Response] {
				if len(per) > 1 {
					for i, sh := range per {
						body += fmt.Sprintf(
							"shard[%d]: steps=%d steals=%d crossShardThrowTo=%d mailboxDepth=%d\n",
							i, sh.Steps, sh.Steals, sh.CrossShardThrowTo, sh.MailboxDepth)
					}
				}
				if tr := tree.Load(); tr != nil {
					body += fmt.Sprintf(
						"tree: restarts=%d crashes=%d forcedKills=%d childrenStarted=%d\n",
						tr.Root.Metrics.Restarts.Load()+tr.Conns.Metrics.Restarts.Load(),
						tr.Conns.Metrics.Crashes.Load(),
						tr.Root.Metrics.ForcedKills.Load()+tr.Conns.Metrics.ForcedKills.Load(),
						tr.Conns.Metrics.ChildrenStarted.Load())
				}
				return core.Return(httpd.Text(200, body))
			})
		})
	})
	if rec != nil {
		// Live NDJSON event stream: one chunk per flush, duration set
		// by ?ms= and capped below the request timeout so the reaper
		// never truncates a well-formed stream mid-chunk.
		maxMS := int(timeout.Milliseconds() * 3 / 4)
		srv.Handle("/trace/stream", httpd.TraceStreamHandler(rec, 100*time.Millisecond, maxMS))
	}
	if *metrics {
		srv.Handle("/metrics", srv.MetricsHandler(func() []obs.Sample {
			tr := tree.Load()
			if tr == nil {
				return nil
			}
			return []obs.Sample{
				{Name: "supervise_restarts_total", Help: "Child restarts across the tree.", Type: obs.Counter,
					Value: float64(tr.Root.Metrics.Restarts.Load() + tr.Conns.Metrics.Restarts.Load())},
				{Name: "supervise_crashes_total", Help: "Connection-child crashes recorded by the tree.", Type: obs.Counter,
					Value: float64(tr.Conns.Metrics.Crashes.Load())},
				{Name: "supervise_forced_kills_total", Help: "Children killed after exceeding their shutdown budget.", Type: obs.Counter,
					Value: float64(tr.Root.Metrics.ForcedKills.Load() + tr.Conns.Metrics.ForcedKills.Load())},
				{Name: "supervise_children_started_total", Help: "Connection children started.", Type: obs.Counter,
					Value: float64(tr.Conns.Metrics.ChildrenStarted.Load())},
			}
		}))
	}

	var (
		liveAddr string
		stop     func() error
	)
	if *supervised {
		run, err := srv.StartSupervised()
		if err != nil {
			log.Fatal(err)
		}
		tree.Store(run.Tree)
		liveAddr, stop = run.Addr, run.Stop
		log.Printf("axhttpd listening on http://%s (request timeout %v, supervised, shards=%d)", liveAddr, *timeout, *shards)
	} else {
		run, err := srv.Start()
		if err != nil {
			log.Fatal(err)
		}
		liveAddr, stop = run.Addr, run.Stop
		log.Printf("axhttpd listening on http://%s (request timeout %v, flat, shards=%d)", liveAddr, *timeout, *shards)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("interrupt: shutting down via asynchronous exception")
	if err := stop(); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, rec); err != nil {
			log.Printf("trace: %v", err)
		}
	}
	log.Printf("bye: accepted=%d served=%d timedOut=%d",
		srv.Stats.Accepted.Load(), srv.Stats.Served.Load(), srv.Stats.TimedOut.Load())
}

// writeTrace dumps the recorder's retained events as Chrome trace_event
// JSON, checking the stream against the delivery invariants first so a
// malformed trace is reported rather than silently shipped.
func writeTrace(path string, rec *obs.Recorder) error {
	events := rec.Snapshot()
	for _, v := range obs.CheckInvariants(events, rec.Stats()) {
		log.Printf("trace: invariant violated: %s", v)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := rec.Stats()
	log.Printf("trace: wrote %d events to %s (recorded=%d dropped=%d spans=%d)",
		len(events), path, st.Recorded, st.Dropped, st.Spans)
	return nil
}
