package asyncexc_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"asyncexc/internal/chaos"
	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/httpd"
	"asyncexc/internal/lambda"
	"asyncexc/internal/machine"
	"asyncexc/internal/poll"
	"asyncexc/internal/supervise"
)

// These benchmarks are the wall-clock counterparts of the experiment
// tables in EXPERIMENTS.md (cmd/axbench produces the deterministic
// step-counted versions). One benchmark per table/experiment.

func mustRun[A any](b *testing.B, opts core.Options, m core.IO[A]) A {
	b.Helper()
	v, e, err := core.RunWith(opts, m)
	if err != nil {
		b.Fatal(err)
	}
	if e != nil {
		b.Fatal(exc.Format(e))
	}
	return v
}

// --- T2: raw scheduler throughput ------------------------------------

// BenchmarkStep measures wall time per scheduler step (pure Return
// chain).
func BenchmarkStep(b *testing.B) {
	prog := core.ReplicateM_(b.N, core.Return(core.UnitValue))
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkFork measures thread creation (T2).
func BenchmarkFork(b *testing.B) {
	prog := core.ReplicateM_(b.N, core.Void(core.Fork(core.Return(core.UnitValue))))
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// --- T1: MVar costs ----------------------------------------------------

// BenchmarkMVarUncontended measures a take+put pair on a private MVar.
func BenchmarkMVarUncontended(b *testing.B) {
	prog := core.Bind(core.NewMVar(0), func(mv core.MVar[int]) core.IO[core.Unit] {
		return core.ReplicateM_(b.N, core.Bind(core.Take(mv), func(v int) core.IO[core.Unit] {
			return core.Put(mv, v+1)
		}))
	})
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkMVarPingPong measures a two-thread handoff cycle.
func BenchmarkMVarPingPong(b *testing.B) {
	prog := core.Bind(core.NewEmptyMVar[int](), func(ping core.MVar[int]) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[int](), func(pong core.MVar[int]) core.IO[core.Unit] {
			echo := core.ReplicateM_(b.N, core.Bind(core.Take(ping), func(v int) core.IO[core.Unit] {
				return core.Put(pong, v)
			}))
			drive := core.ReplicateM_(b.N, core.Then(core.Put(ping, 1), core.Void(core.Take(pong))))
			return core.Then(core.Void(core.Fork(echo)), drive)
		})
	})
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkGoChannelPingPong is the native-Go baseline for the T1
// comparison: the same handoff on goroutines and channels.
func BenchmarkGoChannelPingPong(b *testing.B) {
	ping := make(chan int)
	pong := make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping <- 1
		<-pong
	}
	close(ping)
}

// --- E8: throwTo designs -------------------------------------------------

func benchThrowTo(b *testing.B, syncMode bool) {
	opts := core.DefaultOptions()
	opts.SyncThrowTo = syncMode
	// Each iteration forks a sleeping victim and kills it; the kill is
	// acknowledged through an MVar.
	prog := core.ReplicateM_(b.N, core.Bind(core.NewEmptyMVar[core.Unit](), func(done core.MVar[core.Unit]) core.IO[core.Unit] {
		victim := core.Catch(
			core.Then(core.Sleep(time.Hour), core.Return(core.UnitValue)),
			func(core.Exception) core.IO[core.Unit] { return core.Put(done, core.UnitValue) })
		return core.Bind(core.Fork(victim), func(tid core.ThreadID) core.IO[core.Unit] {
			return core.Seq(
				core.Yield(), // let the victim park
				core.KillThread(tid),
				core.Void(core.Take(done)),
			)
		})
	}))
	b.ResetTimer()
	mustRun(b, opts, prog)
}

// BenchmarkThrowToAsync measures the paper's asynchronous design (E8).
func BenchmarkThrowToAsync(b *testing.B) { benchThrowTo(b, false) }

// BenchmarkThrowToSync measures the §9 synchronous variant (E8).
func BenchmarkThrowToSync(b *testing.B) { benchThrowTo(b, true) }

// --- E7: mask frames -------------------------------------------------------

func benchMaskRecursion(b *testing.B, ablate bool) {
	opts := core.DefaultOptions()
	opts.DisableFrameCancellation = ablate
	var f func(n int) core.IO[int]
	f = func(n int) core.IO[int] {
		if n == 0 {
			return core.Return(0)
		}
		return core.Block(core.Unblock(core.Delay(func() core.IO[int] { return f(n - 1) })))
	}
	b.ResetTimer()
	mustRun(b, opts, f(b.N))
}

// BenchmarkMaskFrames measures block(unblock(·)) recursion with the
// §8.1 cancellation (constant stack).
func BenchmarkMaskFrames(b *testing.B) { benchMaskRecursion(b, false) }

// BenchmarkMaskFramesAblated is the ablation: two frames per level.
func BenchmarkMaskFramesAblated(b *testing.B) { benchMaskRecursion(b, true) }

// --- E6: timeouts ------------------------------------------------------------

// BenchmarkTimeout measures one non-expiring Timeout around trivial
// work (two forks, a race, two kills per §7.3's construction).
func BenchmarkTimeout(b *testing.B) {
	prog := core.ReplicateM_(b.N, core.Void(core.Timeout(time.Hour, core.Return(1))))
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkTimeoutNested3 measures three nested timeouts (the
// composability cost).
func BenchmarkTimeoutNested3(b *testing.B) {
	one := func(m core.IO[int]) core.IO[int] {
		return core.Map(core.Timeout(time.Hour, m), func(r core.Maybe[int]) int { return r.Value })
	}
	prog := core.ReplicateM_(b.N, core.Void(one(one(one(core.Return(1))))))
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkEitherIO measures one race of two trivial computations.
func BenchmarkEitherIO(b *testing.B) {
	prog := core.ReplicateM_(b.N, core.Void(core.EitherIO(core.Return(1), core.Return(2))))
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// --- E4-ish: bracketing overhead ------------------------------------------------

// BenchmarkBracket measures acquire/use/release with no exception.
func BenchmarkBracket(b *testing.B) {
	prog := core.ReplicateM_(b.N, core.Void(core.Bracket(
		core.Return(1),
		func(int) core.IO[int] { return core.Return(2) },
		func(int) core.IO[core.Unit] { return core.Return(core.UnitValue) })))
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkCatchThrow measures a raise-and-handle cycle.
func BenchmarkCatchThrow(b *testing.B) {
	boom := exc.ErrorCall{Msg: "x"}
	prog := core.ReplicateM_(b.N, core.Void(core.Catch(core.Throw[int](boom),
		func(core.Exception) core.IO[int] { return core.Return(0) })))
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// --- E9: polling vs async, wall clock ---------------------------------------------

// BenchmarkPollingWorker measures the instrumented worker's full
// (uncancelled) run with a poll every unit.
func BenchmarkPollingWorker(b *testing.B) {
	prog := core.Bind(poll.NewToken(), func(tok poll.Token) core.IO[poll.WorkReport] {
		return poll.PollingWorker(tok, b.N, 4, 1)
	})
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkAsyncWorkerUninstrumented measures the same workload with
// no poll points at all.
func BenchmarkAsyncWorkerUninstrumented(b *testing.B) {
	prog := core.Bind(core.NewEmptyMVar[poll.WorkReport](), func(res core.MVar[poll.WorkReport]) core.IO[poll.WorkReport] {
		return core.Then(core.Void(core.Fork(poll.AsyncWorker(b.N, 4, res))), core.Take(res))
	})
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// --- conc structures ----------------------------------------------------------------

// BenchmarkChanThroughput measures write+read pairs through the
// unbounded Chan.
func BenchmarkChanThroughput(b *testing.B) {
	prog := core.Bind(conc.NewChan[int](), func(ch conc.Chan[int]) core.IO[core.Unit] {
		writer := core.ReplicateM_(b.N, ch.Write(1))
		reader := core.ReplicateM_(b.N, core.Void(ch.Read()))
		return core.Then(core.Void(core.Fork(writer)), reader)
	})
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkQSemWith measures a With-guarded critical section.
func BenchmarkQSemWith(b *testing.B) {
	prog := core.Bind(conc.NewQSem(1), func(q conc.QSem) core.IO[core.Unit] {
		return core.ReplicateM_(b.N, core.Void(conc.With(q, core.Return(1))))
	})
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// --- F4/F5: the executable semantics -------------------------------------------------

// BenchmarkMachineStep measures one transition of the machine on a
// two-thread MVar program.
func BenchmarkMachineStep(b *testing.B) {
	src := `do { m <- newEmptyMVar ; forkIO (putMVar m 42) ; takeMVar m }`
	st, err := machine.NewFromSource(src, "")
	if err != nil {
		b.Fatal(err)
	}
	sched := machine.RoundRobin()
	b.ResetTimer()
	steps := 0
	for steps < b.N {
		cur := st
		for !cur.Done && steps < b.N {
			ts := machine.Transitions(cur, machine.Options{})
			if len(ts) == 0 {
				break
			}
			cur = ts[sched(cur, ts)].Next
			steps++
		}
	}
}

// BenchmarkExploreLockRace measures exhaustive exploration of the
// §5.1 unsafe-locking program (the E1 verification workload).
func BenchmarkExploreLockRace(b *testing.B) {
	src := `do { m <- newEmptyMVar ; putMVar m 100 ;
	             t <- forkIO (do { a <- takeMVar m ;
	                               b <- catch (return (a + 1)) (\e -> putMVar m a >> throw e) ;
	                               putMVar m b }) ;
	             throwTo t #KillThread ; takeMVar m }`
	for i := 0; i < b.N; i++ {
		st, err := machine.NewFromSource(src, "")
		if err != nil {
			b.Fatal(err)
		}
		res := machine.Explore(st, machine.Options{}, machine.Limits{})
		if !res.HasDeadlock() {
			b.Fatal("race not found")
		}
	}
}

// BenchmarkInnerEval measures the call-by-name evaluator on a small
// recursive program (rule Eval's cost).
func BenchmarkInnerEval(b *testing.B) {
	term := lambda.MustParse(`(rec fib -> \n -> if n < 2 then n else fib (n - 1) + fib (n - 2)) 12`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &lambda.Evaluator{Fuel: 10_000_000}
		if _, e, err := ev.Eval(term); e != nil || err != nil {
			b.Fatal(e, err)
		}
	}
}

// --- E10: the fault-tolerant HTTP server -----------------------------------------------

// BenchmarkHTTPServer measures requests/second against the §11 server.
func BenchmarkHTTPServer(b *testing.B) {
	srv := httpd.New(httpd.Config{RequestTimeout: 5 * time.Second, MaxConns: 256})
	srv.Handle("/hello", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Return(httpd.Text(200, "hello\n"))
	})
	run, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer run.Stop() //nolint:errcheck // benchmark teardown
	url := fmt.Sprintf("http://%s/hello", run.Addr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkHTTPServerUnderSlowLoris measures the same throughput while
// silent connections occupy the server — the fault-tolerance claim in
// numbers.
func BenchmarkHTTPServerUnderSlowLoris(b *testing.B) {
	srv := httpd.New(httpd.Config{RequestTimeout: 200 * time.Millisecond, MaxConns: 256})
	srv.Handle("/hello", func(r httpd.Request) core.IO[httpd.Response] {
		return core.Return(httpd.Text(200, "hello\n"))
	})
	run, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer run.Stop() //nolint:errcheck // benchmark teardown
	// Keep a rolling population of silent connections.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := net.Dial("tcp", run.Addr)
			if err == nil {
				time.Sleep(50 * time.Millisecond)
				c.Close()
			}
		}
	}()
	url := fmt.Sprintf("http://%s/hello", run.Addr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
		resp.Body.Close()
	}
}

// BenchmarkPoolSubmitWait measures a job round trip through the worker
// pool.
func BenchmarkPoolSubmitWait(b *testing.B) {
	prog := core.Bind(conc.NewPool(4), func(p conc.Pool) core.IO[core.Unit] {
		return core.Then(
			core.ReplicateM_(b.N, p.SubmitWait(core.Return(core.UnitValue))),
			p.Stop())
	})
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkMapConcurrently measures a 16-way structured fan-out per
// iteration.
func BenchmarkMapConcurrently(b *testing.B) {
	xs := make([]int, 16)
	prog := core.ReplicateM_(b.N, core.Void(
		conc.MapConcurrently(xs, func(int) core.IO[int] { return core.Return(1) })))
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkChaosScenario measures one full fault-injection scenario.
func BenchmarkChaosScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := chaos.Run(chaos.DefaultConfig(int64(i)))
		if err != nil || rep.Failed() {
			b.Fatalf("%v %v", err, rep.Violations)
		}
	}
}

// --- S1: supervision restart cost ---------------------------------------------------

// benchSupervisorRestart measures the wall-clock cost of one
// crash→restart cycle through a supervisor: a child crashes on each of
// its first b.N starts, with two idle siblings that one-for-all must
// also restart every time (cmd/axbench's S1 table has the step-counted
// version).
func benchSupervisorRestart(b *testing.B, strategy supervise.Strategy) {
	crashes := 0
	idle := func() core.IO[core.Unit] { return core.Forever(core.Sleep(time.Hour)) }
	crasher := func() core.IO[core.Unit] {
		return core.Delay(func() core.IO[core.Unit] {
			if crashes < b.N {
				crashes++
				return core.ThrowErrorCall[core.Unit]("bench crash")
			}
			return idle()
		})
	}
	spec := supervise.Spec{
		Name:      "bench",
		Strategy:  strategy,
		Intensity: supervise.Intensity{MaxRestarts: -1, Window: time.Second},
		Backoff:   supervise.Backoff{Initial: time.Microsecond, Max: time.Microsecond},
		Children: []supervise.ChildSpec{
			{ID: "s0", Start: idle, Restart: supervise.Permanent},
			{ID: "s1", Start: idle, Restart: supervise.Permanent},
			{ID: "crasher", Start: crasher, Restart: supervise.Transient},
		},
	}
	prog := core.Bind(supervise.Start(spec), func(s *supervise.Supervisor) core.IO[core.Unit] {
		healed := core.IterateUntil(core.Then(core.Sleep(time.Millisecond),
			core.Lift(func() bool {
				_, ok := s.ChildThreadID("crasher")
				return crashes >= b.N && ok
			})))
		return core.Then(healed, s.Stop())
	})
	b.ResetTimer()
	mustRun(b, core.DefaultOptions(), prog)
}

// BenchmarkSupervisorRestartOneForOne: only the crasher is restarted.
func BenchmarkSupervisorRestartOneForOne(b *testing.B) {
	benchSupervisorRestart(b, supervise.OneForOne)
}

// BenchmarkSupervisorRestartOneForAll: the whole group is restarted.
func BenchmarkSupervisorRestartOneForAll(b *testing.B) {
	benchSupervisorRestart(b, supervise.OneForAll)
}

// --- P1: parallel speedup ---------------------------------------------

// BenchmarkParallelSpeedup measures the work-stealing engine against
// the serial interpreter at 1/2/4/8 shards on three workloads:
// MVarPingPong (inherently serial two-thread handoff — measures the
// cross-shard overhead floor), ForkFanOut (independent workers —
// embarrassingly parallel), and HTTP (concurrent clients against the
// server). shards=1 is the serial engine and the baseline. Speedup
// requires real cores: on a single-CPU host the fan-out numbers
// collapse to the coordination overhead.
func BenchmarkParallelSpeedup(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("MVarPingPong/shards=%d", shards), func(b *testing.B) {
			prog := core.Bind(core.NewEmptyMVar[int](), func(ping core.MVar[int]) core.IO[core.Unit] {
				return core.Bind(core.NewEmptyMVar[int](), func(pong core.MVar[int]) core.IO[core.Unit] {
					echo := core.ReplicateM_(b.N, core.Bind(core.Take(ping), func(v int) core.IO[core.Unit] {
						return core.Put(pong, v)
					}))
					drive := core.ReplicateM_(b.N, core.Then(core.Put(ping, 1), core.Void(core.Take(pong))))
					return core.Then(core.Void(core.Fork(echo)), drive)
				})
			})
			b.ResetTimer()
			mustRun(b, core.ParallelOptions(shards), prog)
		})
		b.Run(fmt.Sprintf("ForkFanOut/shards=%d", shards), func(b *testing.B) {
			const workers = 8
			prog := core.Bind(core.NewEmptyMVar[core.Unit](), func(done core.MVar[core.Unit]) core.IO[core.Unit] {
				work := core.Then(
					core.ReplicateM_(b.N/workers+1, core.Return(core.UnitValue)),
					core.Put(done, core.UnitValue))
				setup := core.Return(core.UnitValue)
				for w := 0; w < workers; w++ {
					setup = core.Then(setup, core.Void(core.Fork(work)))
				}
				return core.Then(setup,
					core.ReplicateM_(workers, core.Void(core.Take(done))))
			})
			b.ResetTimer()
			mustRun(b, core.ParallelOptions(shards), prog)
		})
		b.Run(fmt.Sprintf("HTTP/shards=%d", shards), func(b *testing.B) {
			srv := httpd.New(httpd.Config{
				RequestTimeout: 5 * time.Second, MaxConns: 256, Shards: shards,
			})
			srv.Handle("/hello", func(r httpd.Request) core.IO[httpd.Response] {
				return core.Return(httpd.Text(200, "hello\n"))
			})
			run, err := srv.Start()
			if err != nil {
				b.Fatal(err)
			}
			defer run.Stop() //nolint:errcheck // benchmark teardown
			url := fmt.Sprintf("http://%s/hello", run.Addr)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp, err := http.Get(url)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
					resp.Body.Close()
					if resp.StatusCode != 200 {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
			})
		})
	}
}
