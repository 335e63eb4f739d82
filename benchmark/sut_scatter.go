package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/iomgr"
)

// scatterSUT is core-scatter: no sockets, the serial engine on the
// real clock, scatterThreads requester threads in a closed loop.
//
//	op    = Timeout(250ms, EitherIO(winner after 8 yields, loser parked in Bracket))
//	probe = fork a Blocked victim parked interruptibly inside a Bracket,
//	        stamp, ThrowTo, and the victim's release stamps again
//
// One op in scatterProbe, drawn from the seed, is a probe. sched and core do
// all the work: fork, MVar hand-offs, timer arm and cancel, throwTo,
// mask frames, unwinding.
type scatterSUT struct {
	sp  spec
	run *running

	startGate chan struct{}
	halt      atomic.Bool // requesters stop at their next op
	samples   sampler

	loadOps, probeOps atomic.Int64
	wrong             atomic.Int64 // ops whose result was not the generated token
	loserReleases     atomic.Int64
	victimReleases    atomic.Int64
	baseline, after   int // LiveThreads before the first and after the last op

	mu    sync.Mutex
	spans map[string][]float64 // traced runs
}

func newScatterSUT(sp spec) *scatterSUT {
	s := &scatterSUT{sp: sp, startGate: make(chan struct{}), spans: map[string][]float64{}}
	finished := core.NewEmptyMVar[core.Unit]()
	prog := core.Bind(finished, func(done core.MVar[core.Unit]) core.IO[core.Unit] {
		forkAll := core.Return(core.UnitValue)
		for r := range scatterThreads {
			rng := rand.New(rand.NewSource(sp.Seed*scatterThreads + int64(r)))
			forkAll = core.Then(forkAll, core.Void(core.ForkNamed(s.requester(rng, done), fmt.Sprintf("requester%d", r))))
		}
		return core.Seq(
			core.Bind(core.LiveThreads(), func(n int) core.IO[core.Unit] { s.baseline = n; return core.Return(core.UnitValue) }),
			// Park until the driver says start, the blocking-world way:
			// an external event through the I/O manager's door.
			core.Void(iomgr.Do("start-gate", func() (core.Unit, error) { <-s.startGate; return core.UnitValue, nil })),
			forkAll,
			core.ReplicateM_(scatterThreads, core.Take(done)),
			s.settle(100),
		)
	})
	s.run = launch(core.RealTimeOptions(), prog)
	return s
}

// settle waits, for at most tries milliseconds, until the threads the
// last ops killed have finished dying, and records the live count.
func (s *scatterSUT) settle(tries int) core.IO[core.Unit] {
	return core.Bind(core.LiveThreads(), func(n int) core.IO[core.Unit] {
		s.after = n
		if n <= s.baseline || tries == 0 {
			return core.Return(core.UnitValue)
		}
		return core.Then(core.Sleep(time.Millisecond), core.Delay(func() core.IO[core.Unit] { return s.settle(tries - 1) }))
	})
}

func (s *scatterSUT) requester(rng *rand.Rand, done core.MVar[core.Unit]) core.IO[core.Unit] {
	return core.Bind(core.NewEmptyMVar[core.Unit](), func(never core.MVar[core.Unit]) core.IO[core.Unit] {
		var loop func() core.IO[core.Unit]
		loop = func() core.IO[core.Unit] {
			if s.halt.Load() {
				return core.Put(done, core.UnitValue)
			}
			// Drawn, not every eighth in step: requesters that probe in
			// phase settle into a rhythm of their own in each run, and
			// kill_p50_us then read 38 µs in one run and 56 µs in the next.
			if rng.Intn(scatterProbe) == 0 {
				return core.Then(s.probe(never), core.Delay(loop))
			}
			return core.Then(s.op(rng.Uint64(), never), core.Delay(loop))
		}
		return core.Delay(loop)
	})
}

// scatterSpans name the consecutive spans of a traced op.
var scatterSpans = []string{"core.fork_us", "core.winner_us", "core.kill_us", "core.unwind_us"}

// stampInto stores the current time, for the spans of a traced run.
func stampInto(t *int64) core.IO[core.Unit] { return lift(func() { *t = nowNs() }) }

func (s *scatterSUT) op(token uint64, never core.MVar[core.Unit]) core.IO[core.Unit] {
	// st: op start, winner's first step, winner's last step, loser's
	// release, op end — stamped only in traced runs.
	var st [5]int64
	winner := core.Then(core.ReplicateM_(scatterYields, core.Yield()), core.Return(token))
	release := lift(func() { s.loserReleases.Add(1) })
	if s.sp.Trace {
		winner = core.Then(stampInto(&st[1]), core.Bind(winner, func(v uint64) core.IO[uint64] {
			return core.Then(stampInto(&st[2]), core.Return(v))
		}))
		release = core.Then(stampInto(&st[3]), release)
	}
	loser := core.Bracket(core.Return(core.UnitValue),
		func(core.Unit) core.IO[uint64] { return core.Then(core.Take(never), core.Return(uint64(0))) },
		func(core.Unit) core.IO[core.Unit] { return release })
	body := core.Timeout(scatterTimeout, core.EitherIO(winner, loser))
	return core.Bind(core.Lift(nowNs), func(t0 int64) core.IO[core.Unit] {
		return core.Bind(body, func(m core.Maybe[core.Either[uint64, uint64]]) core.IO[core.Unit] {
			return lift(func() {
				t1 := nowNs()
				n := s.loadOps.Add(1)
				if !(m.IsJust && m.Value.IsLeft && m.Value.Left == token) {
					s.wrong.Add(1)
				}
				if n%scatterSample != 0 {
					return
				}
				s.samples.addLat(float64(t1-t0) / 1e3)
				// The loser's release races the requester's resumption;
				// keep the op's spans only when the chain is in order.
				if s.sp.Trace && t0 <= st[1] && st[1] <= st[2] && st[2] <= st[3] && st[3] <= t1 {
					st[0], st[4] = t0, t1
					s.mu.Lock()
					for i, name := range scatterSpans {
						s.spans[name] = append(s.spans[name], float64(st[i+1]-st[i])/1e3)
					}
					s.mu.Unlock()
				}
			})
		})
	})
}

func (s *scatterSUT) probe(never core.MVar[core.Unit]) core.IO[core.Unit] {
	return killProbe(
		func(victim core.IO[core.Unit]) core.IO[core.ThreadID] { return core.ForkNamed(victim, "victim") },
		func(release core.IO[core.Unit]) core.IO[core.Unit] {
			return core.Bracket(core.Return(core.UnitValue),
				func(core.Unit) core.IO[core.Unit] { return core.Take(never) },
				func(core.Unit) core.IO[core.Unit] { return release })
		},
		&s.victimReleases, &s.probeOps, &s.samples)
}

// killProbe is the in-process kill probe: fork a Blocked victim that
// parks interruptibly inside guarded's cleanup scope, wait until it is
// about to park, stamp, ThrowTo, and take the stamp its release made.
// Blocked, the exception can land only at the interruptible park
// (§5.3), which is inside the scope.
func killProbe(fork func(core.IO[core.Unit]) core.IO[core.ThreadID],
	guarded func(release core.IO[core.Unit]) core.IO[core.Unit],
	releases, probes *atomic.Int64, samples *sampler) core.IO[core.Unit] {
	return core.Bind(core.NewEmptyMVar[core.Unit](), func(parking core.MVar[core.Unit]) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[int64](), func(released core.MVar[int64]) core.IO[core.Unit] {
			release := core.Bind(core.Lift(nowNs), func(t int64) core.IO[core.Unit] {
				releases.Add(1)
				return core.Put(released, t)
			})
			victim := core.Block(core.Then(core.Put(parking, core.UnitValue), guarded(release)))
			return core.Bind(fork(victim), func(vid core.ThreadID) core.IO[core.Unit] {
				return core.Then(core.Take(parking), core.Bind(core.Lift(nowNs), func(t0 int64) core.IO[core.Unit] {
					return core.Then(core.ThrowTo(vid, exc.ThreadKilled{}),
						core.Bind(core.Take(released), func(t1 int64) core.IO[core.Unit] {
							return lift(func() {
								probes.Add(1)
								samples.addKill(float64(t1-t0) / 1e3)
							})
						}))
				}))
			})
		})
	})
}

func (s *scatterSUT) ready() ready         { return ready{} }
func (s *scatterSUT) start()               { close(s.startGate) }
func (s *scatterSUT) exited() <-chan error { return s.run.died }
func (s *scatterSUT) snapshot() snapshot   { return liveSnapshot(s.run.sys, s.run.done) }

func (s *scatterSUT) tick() tick {
	s.samples.cut()
	return takeTick(s.loadOps.Load(), s.probeOps.Load())
}

func (s *scatterSUT) stop() final {
	f := final{Samples: s.samples.summary()}
	s.halt.Store(true)
	<-s.run.done // main returns once every requester has finished
	f.Attempted, f.Spans = s.loadOps.Load()+s.probeOps.Load(), s.spans
	check := f.check
	check(s.run.err == nil, "runtime ended with: %v", s.run.err)
	f.Failed += s.wrong.Load()
	check(s.wrong.Load() == 0, "%d ops returned something other than their token", s.wrong.Load())
	check(s.loserReleases.Load() == s.loadOps.Load(), "%d losers released for %d ops", s.loserReleases.Load(), s.loadOps.Load())
	check(s.victimReleases.Load() == s.probeOps.Load(), "%d victims released for %d probes", s.victimReleases.Load(), s.probeOps.Load())
	check(s.after == s.baseline, "LiveThreads %d after the run, %d before", s.after, s.baseline)
	return f
}
