// Package httpd is a small fault-tolerant HTTP server built on the
// asyncexc runtime — the paper's §11 experience report ("a prototype
// fault-tolerant HTTP server which makes heavy use of time-outs,
// multithreading and exceptions", citing Marlow's Haskell web server)
// reconstructed on this library.
//
// The design exercises exactly the combinator stack the paper
// advertises:
//
//   - one green thread per connection (forkIO);
//   - every request runs under a composable Timeout, so a slow or
//     silent client (slow loris) is reaped without any cooperation
//     from handler code;
//   - sockets are released with Bracket/Finally whether the handler
//     returns, fails, or is killed asynchronously;
//   - a QSem bounds concurrent connections;
//   - the accept loop is stopped by throwing ThreadKilled at it —
//     asynchronous exceptions as the shutdown mechanism.
//
// The layers grown on top of the flat design each stay optional:
// StartSupervised runs the dispatcher and connections under an
// Erlang-style supervision tree (internal/supervise); UseResilience
// installs admission control — watermark shedding, a bulkhead,
// per-route breakers and deadlines (internal/resilience, see
// docs/RESILIENCE.md); Config.Shards > 1 selects the parallel
// engine; and Config.Observer plus MetricsHandler wire the tracing
// layer (internal/obs) in, serving scheduler, server, and recorder
// counters in Prometheus text form alongside the human-readable
// /stats (see docs/OBSERVABILITY.md).
package httpd

import (
	"net"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/iomgr"
	"asyncexc/internal/obs"
)

// Request is a parsed HTTP request head (this server speaks an
// HTTP/1.0 subset: one request per connection, no body streaming).
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
	// remote is the peer's address, formatted only if a handler asks.
	remote net.Addr
}

// Remote returns the peer's address as host:port, or "" when unknown.
func (r Request) Remote() string {
	if r.remote == nil {
		return ""
	}
	return r.remote.String()
}

// Response is a handler's reply. Either Body (fixed-length) or Stream
// (chunked transfer encoding) carries the payload; when Stream is set
// Body is ignored.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
	// Stream, when non-nil, produces the body incrementally: it is
	// called after the head has been written (with Transfer-Encoding:
	// chunked and no Content-Length) and should emit chunks with
	// WriteChunk; the terminating zero-chunk is written for it when it
	// returns. The stream runs inside the request timeout like any
	// handler code — bound your stream's duration below it.
	Stream func(c *iomgr.Conn) core.IO[core.Unit]
}

// Text builds a plain-text response.
func Text(status int, body string) Response {
	return Response{
		Status:  status,
		Headers: map[string]string{"Content-Type": "text/plain; charset=utf-8"},
		Body:    []byte(body),
	}
}

// Handler computes a response inside the IO monad; it may fork, sleep,
// take MVars — and be killed by the request timeout at any point.
type Handler func(Request) core.IO[Response]

// Config configures a server.
type Config struct {
	// Addr is the listen address (default 127.0.0.1:0).
	Addr string
	// RequestTimeout bounds reading plus handling one request
	// (default 5s). On expiry the connection is closed and a 503 is
	// attempted.
	RequestTimeout time.Duration
	// MaxConns bounds concurrently served connections (default 128).
	MaxConns int
	// DrainTimeout bounds the graceful-shutdown drain: after the
	// accept loop is killed, in-flight requests get this long to
	// finish before the runtime stops (default 5s).
	DrainTimeout time.Duration
	// Shards > 1 runs the runtime on the parallel work-stealing
	// engine with that many worker shards (see docs/PARALLEL.md);
	// 0 or 1 selects the serial engine.
	Shards int
	// Observer, when non-nil, records scheduler and exception-delivery
	// events into the given recorder (see internal/obs and
	// docs/OBSERVABILITY.md); its counters are additionally exported by
	// MetricsHandler. Nil disables event recording.
	Observer *obs.Recorder
}

// Stats are served-traffic counters, safe to read concurrently.
type Stats struct {
	Accepted  atomic.Int64
	Served    atomic.Int64
	TimedOut  atomic.Int64
	Errors    atomic.Int64
	NotFound  atomic.Int64
	Rejected  atomic.Int64
	HandlerEx atomic.Int64
	// Shed counts requests refused by the resilience admission layer
	// (watermark, bulkhead, or breaker) with a 503 + Retry-After.
	Shed atomic.Int64
	// DeadlineHit counts requests whose per-route deadline expired
	// (answered 504).
	DeadlineHit atomic.Int64
	// Active gauges connections currently being served.
	Active atomic.Int64
}

// Server is a configured router.
type Server struct {
	cfg        Config
	routes     map[string]Handler
	middleware []Middleware
	// Stats counts served traffic.
	Stats Stats
}

// New creates a server.
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 128
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	return &Server{cfg: cfg, routes: map[string]Handler{}}
}

// Handle registers a handler for an exact path, or a prefix when path
// ends in "/".
func (s *Server) Handle(path string, h Handler) { s.routes[path] = h }

// route finds the handler: exact match first, then longest "/"-suffixed
// prefix. The query string is not part of the route — "/delay?ms=500"
// routes as "/delay"; handlers that want the query still see the full
// path in Request.Path.
func (s *Server) route(path string) (Handler, bool) {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	if h, ok := s.routes[path]; ok {
		return h, true
	}
	var prefixes []string
	for p := range s.routes {
		if strings.HasSuffix(p, "/") && strings.HasPrefix(path, p) {
			prefixes = append(prefixes, p)
		}
	}
	if len(prefixes) == 0 {
		return nil, false
	}
	sort.Slice(prefixes, func(i, j int) bool { return len(prefixes[i]) > len(prefixes[j]) })
	return s.routes[prefixes[0]], true
}

// RunOn serves on an already-open listener until the calling thread is
// killed; the listener is closed on the way out.
func (s *Server) RunOn(l net.Listener) core.IO[core.Unit] {
	lst := &iomgr.Listener{L: l}
	// The setup runs under Block so a shutdown exception cannot land
	// between taking ownership of the listener and arming the Finally
	// that closes it — the same close-the-window discipline as the
	// paper's safe locking (§5.2).
	return core.Block(core.Bind(conc.NewQSem(s.cfg.MaxConns), func(sem conc.QSem) core.IO[core.Unit] {
		loop := core.Forever(
			core.Bind(lst.Accept(), func(c *iomgr.Conn) core.IO[core.Unit] {
				s.Stats.Accepted.Add(1)
				return core.Bind(sem.TryWait(), func(ok bool) core.IO[core.Unit] {
					if !ok {
						s.Stats.Rejected.Add(1)
						return core.Void(c.Close())
					}
					s.Stats.Active.Add(1)
					return core.Void(core.Fork(
						core.Finally(s.serveConn(c),
							core.Then(sem.Signal(),
								core.Lift(func() core.Unit {
									s.Stats.Active.Add(-1)
									return core.UnitValue
								})))))
				})
			}))
		// Graceful shutdown: a ThreadKilled aimed at the accept loop
		// stops accepting, then in-flight requests drain for up to
		// DrainTimeout before the exception resumes (rule Proc GC
		// would otherwise abandon them mid-handler). A second kill
		// during the drain interrupts it — the force-stop path.
		guarded := core.Catch(loop, func(e exc.Exception) core.IO[core.Unit] {
			if !e.Eq(exc.ThreadKilled{}) {
				return core.Throw[core.Unit](e)
			}
			return core.Then(
				core.Void(core.Try(core.Timeout(s.cfg.DrainTimeout, s.awaitIdle()))),
				core.Throw[core.Unit](e))
		})
		return core.Finally(guarded, core.Void(lst.Close()))
	}))
}

// awaitIdle polls the active-connection gauge until it reaches zero.
func (s *Server) awaitIdle() core.IO[core.Unit] {
	return core.IterateUntil(
		core.Then(core.Sleep(5*time.Millisecond),
			core.Lift(func() bool { return s.Stats.Active.Load() == 0 })))
}

// Run opens the configured address and serves.
func (s *Server) Run() core.IO[core.Unit] {
	return core.Bind(iomgr.Listen("tcp", s.cfg.Addr), func(l *iomgr.Listener) core.IO[core.Unit] {
		return s.RunOn(l.L)
	})
}

// serveConn handles one connection under the request timeout and
// guarantees the socket is closed.
func (s *Server) serveConn(c *iomgr.Conn) core.IO[core.Unit] {
	work := core.Bind(core.TryTimeout(s.cfg.RequestTimeout, s.serveRequest(c)),
		func(r core.TimeoutResult[core.Unit]) core.IO[core.Unit] {
			switch {
			case r.Expired:
				s.Stats.TimedOut.Add(1)
				// Best-effort 503; the client may already be gone.
				return core.Void(core.Try(writeResponse(c, Text(503, "request timed out\n"))))
			case r.Exc != nil:
				// Read/write failure, not a timeout: the connection is
				// beyond apology, so just count it.
				s.Stats.Errors.Add(1)
				return core.Return(core.UnitValue)
			default:
				return core.Return(core.UnitValue)
			}
		})
	guarded := core.Catch(work, func(e core.Exception) core.IO[core.Unit] {
		s.Stats.Errors.Add(1)
		return core.Return(core.UnitValue)
	})
	return core.Finally(guarded, core.Void(c.Close()))
}

// serveRequest reads, routes, runs the handler, and writes the reply.
func (s *Server) serveRequest(c *iomgr.Conn) core.IO[core.Unit] {
	return s.serveRequestMode(c, false)
}

// serveRequestMode is serveRequest with a choice of crash handling:
// with rethrow, a handler crash still gets its 500 reply but is then
// re-raised so a supervising parent (RunSupervisedOn) observes it;
// without, the 500 is the end of the story.
func (s *Server) serveRequestMode(c *iomgr.Conn, rethrow bool) core.IO[core.Unit] {
	return core.Bind(readRequest(c), func(req Request) core.IO[core.Unit] {
		h, ok := s.route(req.Path)
		if !ok {
			s.Stats.NotFound.Add(1)
			return writeResponse(c, Text(404, "not found: "+req.Path+"\n"))
		}
		h = s.wrap(h)
		return core.Bind(core.Try(h(req)), func(r core.Attempt[Response]) core.IO[core.Unit] {
			if r.Failed() {
				if exc.IsAlertException(r.Exc) {
					// Timeout/kill aimed at us: let it continue so the
					// enclosing Timeout sees the thread die.
					return core.Throw[core.Unit](r.Exc)
				}
				s.Stats.HandlerEx.Add(1)
				reply := writeResponse(c, Text(500, "internal error: "+r.Exc.String()+"\n"))
				if rethrow {
					return core.Then(core.Void(core.Try(reply)), core.Throw[core.Unit](r.Exc))
				}
				return reply
			}
			s.Stats.Served.Add(1)
			return writeResponse(c, r.Value)
		})
	})
}

// readRequest parses the request line and headers.
func readRequest(c *iomgr.Conn) core.IO[Request] {
	return core.Bind(c.ReadLine(), func(line string) core.IO[Request] {
		parts := strings.SplitN(line, " ", 3)
		if len(parts) < 2 {
			return core.Throw[Request](exc.IOError{Op: "request", Msg: "malformed request line: " + line})
		}
		req := Request{Method: parts[0], Path: parts[1], Headers: map[string]string{},
			remote: c.C.RemoteAddr()}
		if len(parts) == 3 {
			req.Proto = parts[2]
		}
		var readHeaders func() core.IO[Request]
		readHeaders = func() core.IO[Request] {
			return core.Bind(c.ReadLine(), func(h string) core.IO[Request] {
				if h == "" {
					return core.Return(req)
				}
				if i := strings.Index(h, ":"); i > 0 {
					req.Headers[strings.ToLower(strings.TrimSpace(h[:i]))] = strings.TrimSpace(h[i+1:])
				}
				return core.Delay(readHeaders)
			})
		}
		return core.Delay(readHeaders)
	})
}

// writeResponse serializes a response: a fixed-length body in a
// single write, or — when Stream is set — a chunked head followed by
// the stream's chunks and the terminating zero-chunk.
func writeResponse(c *iomgr.Conn, r Response) core.IO[core.Unit] {
	// The head is appended into one buffer, the body after it: one
	// allocation where fmt through a strings.Builder made a dozen.
	b := make([]byte, 0, 96+len(r.Body))
	if r.Stream != nil {
		// Chunked transfer encoding is an HTTP/1.1 construct; streamed
		// responses advertise 1.1 (still Connection: close).
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	b = strconv.AppendInt(b, int64(r.Status), 10)
	b = append(append(append(b, ' '), statusText(r.Status)...), "\r\n"...)
	if r.Stream != nil {
		b = append(b, "Transfer-Encoding: chunked\r\n"...)
	} else {
		b = strconv.AppendInt(append(b, "Content-Length: "...), int64(len(r.Body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Connection: close\r\n"...)
	for k, v := range r.Headers {
		b = append(append(append(append(b, k...), ": "...), v...), "\r\n"...)
	}
	b = append(b, "\r\n"...)
	if r.Stream == nil {
		return core.Void(c.Write(append(b, r.Body...)))
	}
	head := core.Void(c.Write(b))
	// The zero-chunk is owed even if the stream dies mid-way, so the
	// client sees a well-formed (if truncated) body; a kill aimed at
	// the connection still wins because Finally re-raises it.
	return core.Then(head,
		core.Finally(r.Stream(c), core.Void(core.Try(WriteChunk(c, nil)))))
}

// WriteChunk emits one HTTP/1.1 chunk: the payload length in hex, the
// payload, each CRLF-terminated. A nil or empty payload writes the
// terminating zero-chunk.
func WriteChunk(c *iomgr.Conn, payload []byte) core.IO[core.Unit] {
	if len(payload) == 0 {
		return core.Void(c.Write([]byte("0\r\n\r\n")))
	}
	b := strconv.AppendInt(make([]byte, 0, 20+len(payload)), int64(len(payload)), 16)
	b = append(append(append(b, "\r\n"...), payload...), "\r\n"...)
	return core.Void(c.Write(b))
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 404:
		return "Not Found"
	case 408:
		return "Request Timeout"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	case 504:
		return "Gateway Timeout"
	default:
		return "Status"
	}
}

// ---------------------------------------------------------------------
// Running a server from ordinary Go code
// ---------------------------------------------------------------------

// runtimeOptions builds the scheduler options for a live server: real
// clock for socket I/O, sharded when the config asks for it.
func (s *Server) runtimeOptions() core.Options {
	opts := core.RealTimeOptions()
	opts.Shards = s.cfg.Shards
	opts.Observer = s.cfg.Observer
	return opts
}

// Running is a live server instance.
type Running struct {
	// Addr is the bound address.
	Addr string
	sys  *core.System
	done chan struct{}
	err  error
}

// Start opens the listener, launches the runtime on a goroutine and
// returns once the server is accepting.
func (s *Server) Start() (*Running, error) {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(s.runtimeOptions())
	r := &Running{Addr: l.Addr().String(), sys: sys, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		_, e, err := core.RunSystem(sys, s.RunOn(l))
		if err != nil {
			r.err = err
		} else if e != nil && !e.Eq(exc.ThreadKilled{}) {
			r.err = exc.AsError(e)
		}
	}()
	return r, nil
}

// Stop kills the server's main thread (asynchronous exception as
// shutdown) and waits for the runtime to finish.
func (r *Running) Stop() error {
	r.sys.KillMain()
	<-r.done
	return r.err
}
