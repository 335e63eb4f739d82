package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/exc"
)

// httpOp is one request as the driver saw it. Times are UnixNano so
// they can be set beside the child's stamps.
type httpOp struct {
	start, connected, firstByte, end int64
	id                               int  // X-Req id in traced runs, else -1
	seq                              int  // probe sequence number
	probe                            bool // a kill probe, not load
	timed                            bool // a class whose latency is reported
	ok                               bool
	why                              string // why not ok
	killUs                           float64
}

// httpClient makes HTTP/1.0 requests, one connection each, with
// clientDeadline on every socket operation.
type httpClient struct {
	addr string
	buf  [4096]byte
}

// do sends GET path, reads the reply to EOF (HTTP/1.0: the server
// closes), and checks status and body. id >= 0 adds the X-Req header a
// traced server keys its stamps by.
func (c *httpClient) do(path string, id, wantStatus int, wantBody string) (op httpOp) {
	op.id = id
	op.start = nowNs()
	conn, err := net.DialTimeout("tcp", c.addr, clientDeadline)
	if err != nil {
		op.end, op.why = nowNs(), "connect failed"
		return op
	}
	defer conn.Close()
	op.connected = nowNs()
	conn.SetDeadline(time.Now().Add(clientDeadline))
	req := append(c.buf[:0], "GET "...)
	req = append(req, path...)
	req = append(req, " HTTP/1.0\r\nHost: bench\r\n"...)
	if id >= 0 {
		req = append(req, "X-Req: "...)
		req = strconv.AppendInt(req, int64(id), 10)
		req = append(req, "\r\n"...)
	}
	req = append(req, "\r\n"...)
	if _, err := conn.Write(req); err != nil {
		op.end, op.why = nowNs(), "write failed"
		return op
	}
	n := 0
	for n < len(c.buf) {
		k, err := conn.Read(c.buf[n:])
		if k > 0 && n == 0 {
			op.firstByte = nowNs()
		}
		n += k
		if err != nil {
			break
		}
	}
	op.end = nowNs()
	status, body := parseReply(c.buf[:n])
	if status != wantStatus || string(body) != wantBody {
		op.why = fmt.Sprintf("%s: want %d, got %d or another body", route(path), wantStatus, status)
		if n == 0 {
			op.why = route(path) + ": no reply (timed out, refused or reset)"
		}
		return op
	}
	op.ok = true
	return op
}

// parseReply splits "HTTP/1.x SSS ...\r\n headers \r\n\r\n body".
func parseReply(b []byte) (status int, body []byte) {
	if len(b) < 12 {
		return 0, nil
	}
	status, _ = strconv.Atoi(string(b[9:12]))
	if i := bytes.Index(b, []byte("\r\n\r\n")); i >= 0 {
		body = b[i+4:]
	}
	return status, body
}

// route is a path without its query, for failure messages.
func route(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		return path[:i]
	}
	return path
}

// httpLoad is the closed-loop load of an HTTP workload: nproc−1 load
// connections (at least one) and one probe connection, each sending
// its next request only when the previous one has completed.
type httpLoad struct {
	sp        spec
	addr      string
	stop      atomic.Bool
	wg        sync.WaitGroup
	loadDone  atomic.Int64 // completed load ops, for the slice ticks
	probeDone atomic.Int64
	nextID    atomic.Int64

	mu  sync.Mutex
	ops []httpOp
}

func startHTTPLoad(sp spec, addr string) *httpLoad {
	l := &httpLoad{sp: sp, addr: addr}
	for i := range loadConnections() {
		rng := rand.New(rand.NewSource(sp.Seed*64 + int64(i)))
		l.wg.Add(1)
		go l.loop(func(c *httpClient) httpOp { return l.loadOp(c, rng) }, &l.loadDone)
	}
	seq := 0
	l.wg.Add(1)
	go l.loop(func(c *httpClient) httpOp {
		seq++
		return l.probeOp(c, seq)
	}, &l.probeDone)
	return l
}

func (l *httpLoad) loop(next func(*httpClient) httpOp, done *atomic.Int64) {
	defer l.wg.Done()
	c := &httpClient{addr: l.addr}
	ops := make([]httpOp, 0, 1<<16)
	for !l.stop.Load() {
		op := next(c)
		if !op.ok {
			// Refused connections fail in microseconds; do not spin.
			time.Sleep(time.Millisecond)
		}
		ops = append(ops, op)
		done.Add(1)
	}
	l.mu.Lock()
	l.ops = append(l.ops, ops...)
	l.mu.Unlock()
}

// halt stops the load, waits for the requests in flight, and returns
// every op made. It may be called more than once.
func (l *httpLoad) halt() []httpOp {
	l.stop.Store(true)
	l.wg.Wait()
	return l.ops
}

// traceID numbers the requests of a traced run; -1 otherwise.
func (l *httpLoad) traceID() int {
	if !l.sp.Trace {
		return -1
	}
	return int(l.nextID.Add(1))
}

// loadOp draws the next load request from the workload's seeded mix.
func (l *httpLoad) loadOp(c *httpClient, rng *rand.Rand) httpOp {
	arg := rng.Uint64()
	if l.sp.Workload == wlHello {
		return l.hello(c, arg)
	}
	switch p := rng.Intn(100); {
	case p < 54:
		return l.hello(c, arg)
	case p < 92:
		op := c.do(fmt.Sprintf("/work?x=%d", arg), l.traceID(), 200, fmt.Sprintf("work %d\n", workChecksum(arg)))
		op.timed = true
		return op
	case p < 96:
		// Faults are verified, not timed.
		return c.do("/crash?x="+strconv.FormatUint(arg, 10), l.traceID(), 500,
			"internal error: "+exc.ErrorCall{Msg: crashMessage}.String()+"\n")
	default:
		return c.do("/delay?ms=1", l.traceID(), 200, "slept 1ms\n")
	}
}

func (l *httpLoad) hello(c *httpClient, token uint64) httpOp {
	t := strconv.FormatUint(token, 36)
	op := c.do("/hello?t="+t, l.traceID(), 200, "hello "+t+"\n")
	op.timed = true
	return op
}

// probeOp asks the server to park a victim and reap it after
// probeDeadline. A reply that comes back sooner is a failure: the
// deadline cannot have been honoured.
func (l *httpLoad) probeOp(c *httpClient, seq int) httpOp {
	var op httpOp
	if l.sp.Workload == wlHello {
		op = c.do("/reap?i="+strconv.Itoa(seq), -1, 200, "reaped\n")
	} else {
		op = c.do("/spin?i="+strconv.Itoa(seq), -1, 504, "route deadline exceeded\n")
	}
	op.probe, op.seq = true, seq
	if op.ok && time.Duration(op.end-op.start) < probeDeadline {
		op.ok, op.why = false, "probe answered before its deadline"
	}
	return op
}

// loadConnections is nproc−1, at least one: with the probe connection
// the driver never has more connections than the box has CPUs.
func loadConnections() int { return max(1, numCPU()-1) }
