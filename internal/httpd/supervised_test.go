package httpd_test

import (
	"strings"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/httpd"
)

// startSupervised builds a supervised server with the standard routes.
func startSupervised(t *testing.T, cfg httpd.Config) (*httpd.Server, *httpd.RunningSupervised) {
	t.Helper()
	s := httpd.New(cfg)
	s.Handle("/hello", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Return(httpd.Text(200, "hello "+r.Remote()+"\n"))
	})
	s.Handle("/boom", func(r httpd.Request) core.IO[httpd.Response] {
		return core.ThrowErrorCall[httpd.Response]("handler exploded")
	})
	s.Handle("/slow", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Then(core.Sleep(time.Hour), core.Return(httpd.Text(200, "slept\n")))
	})
	run, err := s.StartSupervised()
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

// eventually polls cond every millisecond for up to two seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSupervisedServesAndRecordsHandlerCrashes(t *testing.T) {
	s, run := startSupervised(t, httpd.Config{RequestTimeout: 2 * time.Second})
	for i := 0; i < 3; i++ {
		code, body := get(t, run.Addr, "/boom")
		if code != 500 || !strings.Contains(body, "handler exploded") {
			t.Fatalf("got %d %q", code, body)
		}
	}
	// The crash reached the tree: each /boom connection was a
	// Temporary child that died Crashed — recorded, not restarted.
	eventually(t, "crash accounting", func() bool {
		return run.Tree.Conns.Metrics.Crashes.Load() == 3
	})
	if got := run.Tree.Root.Metrics.Restarts.Load(); got != 0 {
		t.Errorf("root restarts = %d, want 0 (conn crashes must not restart anything)", got)
	}
	// And the server still serves.
	code, body := get(t, run.Addr, "/hello")
	if code != 200 || !strings.HasPrefix(body, "hello ") {
		t.Fatalf("after crashes: got %d %q", code, body)
	}
	if s.Stats.HandlerEx.Load() != 3 {
		t.Errorf("HandlerEx = %d, want 3", s.Stats.HandlerEx.Load())
	}
}

func TestSupervisedAcceptLoopIsRestartedAfterKill(t *testing.T) {
	_, run := startSupervised(t, httpd.Config{RequestTimeout: 2 * time.Second})
	code, _ := get(t, run.Addr, "/hello")
	if code != 200 {
		t.Fatalf("pre-kill: got %d", code)
	}

	tid, ok := run.Tree.Root.ChildThreadID("accept")
	if !ok {
		t.Fatal("accept loop thread not registered")
	}
	run.Kill(tid)

	// The Permanent policy brings the accept loop back on the same
	// listener; the supervisor restart counter proves the path taken.
	eventually(t, "accept-loop restart", func() bool {
		return run.Tree.Root.Metrics.Restarts.Load() >= 1
	})
	eventually(t, "new accept thread", func() bool {
		nt, ok := run.Tree.Root.ChildThreadID("accept")
		return ok && nt != tid
	})
	code, body := get(t, run.Addr, "/hello")
	if code != 200 {
		t.Fatalf("post-restart: got %d %q", code, body)
	}
}

func TestSupervisedSchedStatsCountKillsAndRestarts(t *testing.T) {
	_, run := startSupervised(t, httpd.Config{RequestTimeout: 100 * time.Millisecond})

	// A reaped request: the Timeout machinery calls KillThread on the
	// handler thread (ThrowTos) and the exception is raised in it
	// (Delivered). The worker catches the kill to report its exit, so
	// Killed — uncaught ThreadKilled deaths — stays 0 by design here;
	// it is covered at the core level in TestSchedStatsCountKilled.
	if code, _ := get(t, run.Addr, "/slow"); code != 503 {
		t.Fatalf("slow request not reaped")
	}
	// A killed accept dispatcher: the supervisor restarts it — the
	// SupervisorRestarts counter.
	tid, ok := run.Tree.Root.ChildThreadID("accept")
	if !ok {
		t.Fatal("accept loop thread not registered")
	}
	run.Kill(tid)
	eventually(t, "sched counters", func() bool {
		st := run.SchedStats()
		return st.Delivered >= 1 && st.SupervisorRestarts >= 1 && st.ThrowTos >= 1
	})
}
