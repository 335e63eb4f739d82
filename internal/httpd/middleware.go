package httpd

import (
	"strconv"
	"time"

	"asyncexc/internal/core"
)

// Middleware wraps a Handler; registered middleware applies to every
// route (outermost first).
type Middleware func(Handler) Handler

// Use registers middleware; call before Start.
func (s *Server) Use(mw Middleware) { s.middleware = append(s.middleware, mw) }

// wrap applies the registered middleware chain.
func (s *Server) wrap(h Handler) Handler {
	for i := len(s.middleware) - 1; i >= 0; i-- {
		h = s.middleware[i](h)
	}
	return h
}

// Logged logs one line per request — method, path, status, and the
// handler's wall-clock duration — through logf, which must be safe to
// call from the scheduler goroutine. A handler that raises logs before
// the exception continues (OnException-style), so reaped requests
// still appear.
func Logged(logf func(string)) Middleware {
	return func(next Handler) Handler {
		return func(r Request) core.IO[Response] {
			return core.Bind(core.Lift(time.Now), func(start time.Time) core.IO[Response] {
				work := core.Bind(next(r), func(resp Response) core.IO[Response] {
					return core.Then(core.Lift(func() core.Unit {
						logf(logLine(r, strconv.Itoa(resp.Status), time.Since(start)))
						return core.UnitValue
					}), core.Return(resp))
				})
				return core.OnException(work, core.Lift(func() core.Unit {
					logf(logLine(r, "interrupted", time.Since(start)))
					return core.UnitValue
				}))
			})
		}
	}
}

// logLine is Logged's "METHOD PATH -> outcome (took)", took rounded to
// the millisecond, concatenated rather than formatted with fmt, which
// boxes each argument.
func logLine(r Request, outcome string, took time.Duration) string {
	return r.Method + " " + r.Path + " -> " + outcome + " (" + took.Round(time.Millisecond).String() + ")"
}

// WithHeader adds a fixed response header to every reply.
func WithHeader(key, value string) Middleware {
	return func(next Handler) Handler {
		return func(r Request) core.IO[Response] {
			return core.Map(next(r), func(resp Response) Response {
				if resp.Headers == nil {
					resp.Headers = map[string]string{}
				}
				resp.Headers[key] = value
				return resp
			})
		}
	}
}

// HandlerTimeout bounds one route's handler more tightly than the
// server-wide request budget, answering 503 on expiry — per-route
// composable timeouts, nested inside the global one exactly as §7.3
// promises they can be.
func HandlerTimeout(d time.Duration) Middleware {
	return func(next Handler) Handler {
		return func(r Request) core.IO[Response] {
			return core.Bind(core.TryTimeout(d, next(r)), func(res core.TimeoutResult[Response]) core.IO[Response] {
				switch {
				case res.Expired:
					return core.Return(Text(503, "handler timed out\n"))
				case res.Exc != nil:
					// A handler crash is not a timeout: re-raise so the
					// server's 500 path (and supervision) sees it.
					return core.Throw[Response](res.Exc)
				default:
					return core.Return(res.Value)
				}
			})
		}
	}
}
