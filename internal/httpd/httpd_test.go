package httpd_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/httpd"
)

// startServer builds a server with the standard test routes.
func startServer(t *testing.T, cfg httpd.Config) (*httpd.Server, *httpd.Running) {
	t.Helper()
	s := httpd.New(cfg)
	s.Handle("/hello", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Return(httpd.Text(200, "hello "+r.Remote()+"\n"))
	})
	s.Handle("/slow", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Then(core.Sleep(time.Hour), core.Return(httpd.Text(200, "slept\n")))
	})
	s.Handle("/boom", func(r httpd.Request) core.IO[httpd.Response] {
		return core.ThrowErrorCall[httpd.Response]("handler exploded")
	})
	s.Handle("/work/", func(r httpd.Request) core.IO[httpd.Response] {
		// A handler that computes with green threads: the racing pair
		// of §7.2 inside a web handler.
		a := core.Then(core.Sleep(time.Millisecond), core.Return("fast"))
		b := core.Then(core.Sleep(time.Second), core.Return("slow"))
		return core.Bind(core.EitherIO(a, b), func(r core.Either[string, string]) core.IO[httpd.Response] {
			if r.IsLeft {
				return core.Return(httpd.Text(200, "winner:"+r.Left+"\n"))
			}
			return core.Return(httpd.Text(200, "winner:"+r.Right+"\n"))
		})
	})
	run, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := run.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return s, run
}

func get(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(body)
}

func TestServeHello(t *testing.T) {
	_, run := startServer(t, httpd.Config{RequestTimeout: 2 * time.Second})
	code, body := get(t, run.Addr, "/hello")
	if code != 200 || !strings.HasPrefix(body, "hello ") {
		t.Fatalf("got %d %q", code, body)
	}
}

func TestNotFound(t *testing.T) {
	_, run := startServer(t, httpd.Config{RequestTimeout: 2 * time.Second})
	code, _ := get(t, run.Addr, "/nope")
	if code != 404 {
		t.Fatalf("got %d", code)
	}
}

func TestHandlerExceptionBecomes500(t *testing.T) {
	s, run := startServer(t, httpd.Config{RequestTimeout: 2 * time.Second})
	code, body := get(t, run.Addr, "/boom")
	if code != 500 || !strings.Contains(body, "handler exploded") {
		t.Fatalf("got %d %q", code, body)
	}
	if s.Stats.HandlerEx.Load() != 1 {
		t.Fatalf("HandlerEx=%d", s.Stats.HandlerEx.Load())
	}
}

func TestPrefixRoute(t *testing.T) {
	_, run := startServer(t, httpd.Config{RequestTimeout: 2 * time.Second})
	code, body := get(t, run.Addr, "/work/anything")
	if code != 200 || body != "winner:fast\n" {
		t.Fatalf("got %d %q", code, body)
	}
}

func TestSlowHandlerIsReaped(t *testing.T) {
	s, run := startServer(t, httpd.Config{RequestTimeout: 100 * time.Millisecond})
	code, body := get(t, run.Addr, "/slow")
	if code != 503 {
		t.Fatalf("got %d %q; the timeout must reap the handler", code, body)
	}
	if s.Stats.TimedOut.Load() != 1 {
		t.Fatalf("TimedOut=%d", s.Stats.TimedOut.Load())
	}
}

func TestSlowLorisIsReaped(t *testing.T) {
	// A client that connects and sends nothing must not occupy the
	// server past the request timeout.
	s, run := startServer(t, httpd.Config{RequestTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", run.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	buf := make([]byte, 1024)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	n, _ := conn.Read(buf)                                // server sends 503 or closes
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Fatalf("connection held for %v", elapsed)
	}
	if n > 0 && !strings.Contains(string(buf[:n]), "503") {
		t.Fatalf("unexpected reply %q", string(buf[:n]))
	}
	// Wait for the stat to land.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats.TimedOut.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.Stats.TimedOut.Load() != 1 {
		t.Fatalf("TimedOut=%d", s.Stats.TimedOut.Load())
	}
}

func TestHealthyTrafficDuringSlowLoris(t *testing.T) {
	// The paper's fault-tolerance claim: stuck requests do not take
	// the server down; concurrent healthy requests keep being served.
	_, run := startServer(t, httpd.Config{RequestTimeout: 300 * time.Millisecond})
	// Open several silent connections.
	for i := 0; i < 5; i++ {
		c, err := net.Dial("tcp", run.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	// Healthy requests must still succeed promptly.
	for i := 0; i < 5; i++ {
		code, _ := get(t, run.Addr, "/hello")
		if code != 200 {
			t.Fatalf("healthy request %d got %d", i, code)
		}
	}
}

func TestConcurrentLoad(t *testing.T) {
	s, run := startServer(t, httpd.Config{RequestTimeout: 5 * time.Second, MaxConns: 64})
	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("http://%s/hello", run.Addr))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Stats.Served.Load() != n {
		t.Fatalf("Served=%d, want %d", s.Stats.Served.Load(), n)
	}
}

func TestStopUnblocksAccept(t *testing.T) {
	s := httpd.New(httpd.Config{})
	run, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- run.Stop() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not interrupt the accept loop")
	}
	// The listener must be closed.
	if _, err := net.DialTimeout("tcp", run.Addr, 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after Stop")
	}
}
