package iomgr_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/iomgr"
)

func realOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Clock = core.RealClock
	return opts
}

func TestDoRunsBlockingCall(t *testing.T) {
	m := iomgr.Do("compute", func() (int, error) {
		time.Sleep(5 * time.Millisecond)
		return 42, nil
	})
	v, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != 42 {
		t.Fatalf("got %d", v)
	}
}

func TestDoErrorBecomesIOError(t *testing.T) {
	m := iomgr.Do("fail", func() (int, error) {
		return 0, net.ErrClosed
	})
	_, e, err := core.RunWith(realOpts(), m)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil || e.ExceptionName() != "IOError" {
		t.Fatalf("want IOError, got %v", e)
	}
}

func TestOtherThreadsRunDuringBlockingCall(t *testing.T) {
	// While one green thread blocks in a Go call, another keeps
	// making progress — the whole point of the I/O manager.
	release := make(chan struct{})
	progressed := false
	m := core.Bind(core.NewEmptyMVar[int](), func(done core.MVar[int]) core.IO[int] {
		blocking := iomgr.Do("wait", func() (int, error) {
			<-release
			return 1, nil
		})
		side := core.Then(
			core.Lift(func() core.Unit { progressed = true; return core.UnitValue }),
			core.Lift(func() core.Unit { close(release); return core.UnitValue }))
		return core.Then(core.Void(core.Fork(side)), blocking)
	})
	v, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != 1 || !progressed {
		t.Fatalf("v=%d progressed=%v", v, progressed)
	}
}

func TestAwaitIsInterruptible(t *testing.T) {
	// A green thread stuck in an await is interruptible, like any
	// paper operation waiting on the outside world.
	block := make(chan struct{})
	defer close(block)
	m := core.Bind(core.NewEmptyMVar[string](), func(done core.MVar[string]) core.IO[string] {
		child := core.Catch(
			core.Then(iomgr.Do("forever", func() (int, error) { <-block; return 0, nil }),
				core.Put(done, "finished")),
			func(e core.Exception) core.IO[core.Unit] {
				return core.Put(done, "interrupted:"+e.ExceptionName())
			})
		return core.Bind(core.Fork(child), func(tid core.ThreadID) core.IO[string] {
			return core.Then(core.Seq(
				core.Sleep(10*time.Millisecond),
				core.KillThread(tid),
			), core.Take(done))
		})
	})
	v, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != "interrupted:ThreadKilled" {
		t.Fatalf("got %q", v)
	}
}

func TestCancelHookRuns(t *testing.T) {
	cancelled := make(chan struct{})
	block := make(chan struct{})
	m := core.Bind(core.Fork(core.Void(iomgr.DoCancel("c",
		func() (int, error) { <-block; return 0, nil },
		func() { close(cancelled); close(block) },
		nil))), func(tid core.ThreadID) core.IO[core.Unit] {
		return core.Seq(
			core.Sleep(10*time.Millisecond),
			core.KillThread(tid),
			core.Sleep(20*time.Millisecond),
		)
	})
	_, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	select {
	case <-cancelled:
	case <-time.After(time.Second):
		t.Fatal("cancel hook never ran")
	}
}

// waitFor blocks the calling green thread until ch is closed.
func waitFor(ch chan struct{}) core.IO[core.Unit] {
	return iomgr.Do("waitFor", func() (core.Unit, error) { <-ch; return core.UnitValue, nil })
}

// TestDoCancelDropsLateResult interrupts the await; the result that
// arrives after the cancellation reaches dropped exactly once instead
// of leaking.
func TestDoCancelDropsLateResult(t *testing.T) {
	checkLateResultDropped(t, func(release chan struct{}, done core.MVar[core.Unit]) core.IO[core.Unit] {
		return core.Seq(
			core.Take(done), // the killed thread has unwound
			core.Lift(func() core.Unit { close(release); return core.UnitValue }),
		)
	})
}

// TestDoCancelDropsResultLandingBeforeHandler releases the operation in
// the killer's own slice, right after the kill, and lets its completion
// arrive before the killed thread runs again: the result lands after
// the interrupt but before any handler of the killed thread, and must
// still reach dropped. (Cancelling the promise in a catch handler
// rather than at the interrupt resolved the orphaned promise instead.)
func TestDoCancelDropsResultLandingBeforeHandler(t *testing.T) {
	checkLateResultDropped(t, func(release chan struct{}, done core.MVar[core.Unit]) core.IO[core.Unit] {
		return core.Seq(
			core.Lift(func() core.Unit {
				close(release)
				time.Sleep(20 * time.Millisecond) // the completion is queued
				return core.UnitValue
			}),
			core.Take(done),
		)
	})
}

// checkLateResultDropped forks a thread into DoCancel, kills it once
// the operation has started, and then runs after(release, done), which
// must release the operation; done is filled when the killed thread
// has unwound. The operation's result must reach dropped exactly once.
func checkLateResultDropped(t *testing.T, after func(release chan struct{}, done core.MVar[core.Unit]) core.IO[core.Unit]) {
	t.Helper()
	started, release := make(chan struct{}), make(chan struct{})
	droppedCh := make(chan string, 2)
	op := iomgr.DoCancel("late",
		func() (string, error) { close(started); <-release; return "late-result", nil },
		nil,
		func(v string) { droppedCh <- v })
	// The main thread waits for the drop through iomgr itself, so the
	// run ends only once the late result has been reclaimed.
	waitDrop := iomgr.Do("waitDrop", func() (string, error) {
		select {
		case v := <-droppedCh:
			return v, nil
		case <-time.After(5 * time.Second):
			return "", errors.New("late result was not passed to dropped")
		}
	})
	m := core.Bind(core.NewEmptyMVar[core.Unit](), func(done core.MVar[core.Unit]) core.IO[string] {
		child := core.Finally(core.Void(op), core.Put(done, core.UnitValue))
		return core.Bind(core.Fork(child), func(tid core.ThreadID) core.IO[string] {
			return core.Then(core.Seq(
				waitFor(started),
				core.KillThread(tid),
				after(release, done),
			), waitDrop)
		})
	})
	v, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != "late-result" {
		t.Fatalf("dropped %q", v)
	}
	select {
	case v := <-droppedCh:
		t.Fatalf("dropped a second time: %q", v)
	default:
	}
}

// TestDoCancelNeverOrphansLaunchedOp kills a thread inside DoCancel at
// every early point: a one-step time slice, a seeded random scheduler
// and 0–7 steps of delay before the kill land it anywhere from before
// the launch to the parked await. An operation that was launched must
// reach its cancel hook. (When the launch and the await were separate
// steps, a kill landing between them could unwind the thread with
// neither hook run, leaving the goroutine blocked.)
func TestDoCancelNeverOrphansLaunchedOp(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		release := make(chan struct{})
		cancelled := false
		op := iomgr.DoCancel("op",
			func() (int, error) { <-release; return 0, nil },
			func() { cancelled = true; close(release) },
			nil)
		delay := make([]core.IO[core.Unit], seed%8)
		for i := range delay {
			delay[i] = core.Lift(func() core.Unit { return core.UnitValue })
		}
		m := core.Bind(core.NewEmptyMVar[core.Unit](), func(done core.MVar[core.Unit]) core.IO[core.Unit] {
			child := core.Finally(op, core.Put(done, core.UnitValue))
			return core.Bind(core.Fork(child), func(tid core.ThreadID) core.IO[core.Unit] {
				return core.Seq(core.Seq(delay...), core.KillThread(tid), core.Take(done))
			})
		})
		opts := realOpts()
		opts.TimeSlice = 1
		opts.RandomSched = true
		opts.Seed = seed
		sys := core.NewSystem(opts)
		if _, e, err := core.RunSystem(sys, m); err != nil || e != nil {
			t.Fatalf("seed %d: run: %v %v", seed, err, e)
		}
		if !cancelled {
			close(release)
			if sys.Stats().PromisesCreated > 0 {
				t.Fatalf("seed %d: the operation was launched, then the kill ran neither hook", seed)
			}
		}
	}
}

// TestDoUnderBlockUninterruptibleIgnoresKill: a Do waiting under
// BlockUninterruptible is not interruptible, so a kill waits for the
// operation to finish.
func TestDoUnderBlockUninterruptibleIgnoresKill(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	m := core.Bind(core.NewEmptyMVar[string](), func(done core.MVar[string]) core.IO[string] {
		child := core.BlockUninterruptible(core.Then(
			iomgr.Do("wait", func() (int, error) { close(started); <-release; return 0, nil }),
			core.Put(done, "finished")))
		return core.Bind(core.Fork(child), func(tid core.ThreadID) core.IO[string] {
			return core.Then(core.Seq(
				waitFor(started),
				core.KillThread(tid),
				core.Lift(func() core.Unit { close(release); return core.UnitValue }),
			), core.Take(done))
		})
	})
	v, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != "finished" {
		t.Fatalf("got %q", v)
	}
}

// TestDoStepCount pins the scheduler cost of an I/O wait: the launch
// and the await are one step, so a Do sequenced by a bind costs at
// most four steps.
func TestDoStepCount(t *testing.T) {
	steps := func(n int) uint64 {
		var loop func(i int) core.IO[core.Unit]
		loop = func(i int) core.IO[core.Unit] {
			if i == 0 {
				return core.Return(core.UnitValue)
			}
			return core.Bind(iomgr.Do("noop", func() (int, error) { return 0, nil }), func(int) core.IO[core.Unit] {
				return loop(i - 1)
			})
		}
		sys := core.NewSystem(realOpts())
		if _, e, err := core.RunSystem(sys, loop(n)); err != nil || e != nil {
			t.Fatalf("run: %v %v", err, e)
		}
		return sys.Stats().Steps
	}
	const n = 2000
	per := float64(steps(n)-steps(0)) / n
	if per > 4 {
		t.Fatalf("%.2f steps per Do, want <= 4", per)
	}
	t.Logf("%.2f steps per Do", per)
}

func TestTCPRoundTrip(t *testing.T) {
	m := core.Bind(iomgr.Listen("tcp", "127.0.0.1:0"), func(l *iomgr.Listener) core.IO[string] {
		addr := l.Addr().String()
		server := core.Bind(l.Accept(), func(c *iomgr.Conn) core.IO[core.Unit] {
			return core.Bind(c.ReadLine(), func(line string) core.IO[core.Unit] {
				return core.Then(core.Void(c.WriteString("echo:"+line+"\n")), core.Void(c.Close()))
			})
		})
		client := core.Bind(iomgr.Dial("tcp", addr), func(c *iomgr.Conn) core.IO[string] {
			return core.Then(core.Void(c.WriteString("hello\n")),
				core.Bind(c.ReadLine(), func(resp string) core.IO[string] {
					return core.Then(core.Void(c.Close()), core.Return(resp))
				}))
		})
		return core.Then(core.Void(core.Fork(server)),
			core.Bind(client, func(resp string) core.IO[string] {
				return core.Then(core.Void(l.Close()), core.Return(resp))
			}))
	})
	v, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != "echo:hello" {
		t.Fatalf("got %q", v)
	}
}

func TestTimeoutReapsSlowRead(t *testing.T) {
	// The composable Timeout combinator kills a handler stuck reading
	// from a silent client — the §11 fault-tolerant-server behaviour.
	m := core.Bind(iomgr.Listen("tcp", "127.0.0.1:0"), func(l *iomgr.Listener) core.IO[string] {
		addr := l.Addr().String()
		server := core.Bind(l.Accept(), func(c *iomgr.Conn) core.IO[string] {
			return core.Bind(core.Timeout(30*time.Millisecond, c.ReadLine()), func(r core.Maybe[string]) core.IO[string] {
				if r.IsJust {
					return core.Return("read:" + r.Value)
				}
				return core.Then(core.Void(c.Close()), core.Return("timed-out"))
			})
		})
		// The client connects and stays silent (slow loris).
		client := core.Bind(iomgr.Dial("tcp", addr), func(c *iomgr.Conn) core.IO[core.Unit] {
			return core.Then(core.Sleep(time.Second), core.Void(c.Close()))
		})
		return core.Then(core.Void(core.Fork(client)),
			core.Bind(server, func(out string) core.IO[string] {
				return core.Then(core.Void(l.Close()), core.Return(out))
			}))
	})
	v, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != "timed-out" {
		t.Fatalf("got %q", v)
	}
	_ = exc.Timeout{}
}
