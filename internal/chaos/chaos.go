// Package chaos is a fault-injection soak harness for the runtime: it
// assembles a workload out of the library's own abstractions (locked
// state via ModifyMVar, channels, a worker pool, a semaphore) and lets
// a chaos thread throw asynchronous exceptions at random victims while
// everything runs. Afterwards it checks the global invariants that the
// paper's mechanisms are supposed to guarantee:
//
//   - the lock is never lost and its state is never corrupted (§5.2);
//   - channel tokens are neither duplicated nor fabricated;
//   - pool jobs are never torn (each started job finishes);
//   - semaphore capacity is conserved.
//
// Scenarios are deterministic per seed (virtual clock, seeded random
// scheduler), so a violation is a reproducible counterexample. With
// Config.Observer set, the soak also records the full event stream
// (internal/obs); the obs soak tests then check it against the
// delivery invariants — every delivered exception has a matching
// enqueue with the mask state recorded — and reconcile the event
// counts against the scheduler's own counters.
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"

	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// Config sizes a scenario.
type Config struct {
	// Seed drives both the scheduler and the chaos thread.
	Seed int64
	// Workers increment the locked account (each tries Increments
	// updates).
	Workers    int
	Increments int
	// Producers each send Tokens unique tokens through a channel to
	// one consumer.
	Producers int
	Tokens    int
	// PoolSize/PoolJobs size the worker pool.
	PoolSize int
	PoolJobs int
	// Kills is how many asynchronous exceptions the chaos thread
	// throws at random victims.
	Kills int
	// Shards > 1 runs the scenario on the parallel work-stealing
	// engine; the invariants are the same, exercised across shards.
	Shards int
	// Observer, when non-nil, records scheduler and exception-delivery
	// events during the soak; obs soak tests check the recorded stream
	// against the delivery invariants afterwards.
	Observer *obs.Recorder
	// Sim, when non-nil, routes every scheduling decision through the
	// deterministic-simulation seam: a sim.Recorder captures the
	// schedule, a sim.Replayer forces a recorded one (see
	// docs/SIMULATION.md).
	Sim core.SimSource
	// MaxSteps bounds the run (0 = unlimited); replaying shrunk
	// schedules uses it so a mangled candidate cannot run away.
	MaxSteps uint64
	// SchedSeed, when non-zero, seeds the scheduler independently of
	// Seed (which also drives the chaos thread's victim picks). The
	// shrinking tooling sets it so un-forced decisions fall back to a
	// neutral baseline: the shrunk schedule's surviving forcings are
	// then load-bearing rather than shadowed by the recording seed.
	SchedSeed int64
}

// DefaultConfig returns a moderate scenario.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed: seed, Workers: 4, Increments: 10,
		Producers: 3, Tokens: 15,
		PoolSize: 3, PoolJobs: 12,
		Kills: 8,
	}
}

// Report is the outcome of a scenario.
type Report struct {
	// Violations lists every broken invariant (empty = pass).
	Violations []string
	// KillsDelivered counts chaos exceptions that actually landed.
	KillsDelivered uint64
	// ThrowTos counts exceptions placed in flight (Stats.ThrowTos).
	ThrowTos uint64
	// Steps is the total scheduler steps executed.
	Steps uint64
	// AccountValue is the final locked-account value.
	AccountValue int
	// TokensReceived counts distinct tokens the consumer got.
	TokensReceived int
	// JobsStarted/JobsFinished count pool-job phases.
	JobsStarted, JobsFinished int
}

// Failed reports whether any invariant broke.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// Run executes the scenario and checks the invariants.
func Run(cfg Config) (Report, error) {
	var rep Report

	// Go-side instrumentation. Green threads run on one goroutine in
	// serial mode but on Shards goroutines in parallel mode, so the
	// counters are atomics and the shared map/slice are mutex-guarded.
	var (
		exited       atomic.Int64 // threads that finished or died (via Finally)
		totalThreads atomic.Int64
		jobsStarted  atomic.Int64
		jobsFinished atomic.Int64
		mu           sync.Mutex // guards received (and victims, below)
		received     = map[int]int{}
		consumerDone bool
	)

	opts := core.DefaultOptions()
	opts.RandomSched = true
	opts.Seed = cfg.Seed
	if cfg.SchedSeed != 0 {
		opts.Seed = cfg.SchedSeed
	}
	opts.TimeSlice = 3
	opts.Shards = cfg.Shards
	opts.Observer = cfg.Observer
	opts.Sim = cfg.Sim
	if cfg.MaxSteps > 0 {
		opts.MaxSteps = cfg.MaxSteps
	}
	sys := core.NewSystem(opts)

	tracked := func(m core.IO[core.Unit]) core.IO[core.Unit] {
		totalThreads.Add(1)
		return core.Finally(core.Void(core.Try(m)),
			core.Lift(func() core.Unit { exited.Add(1); return core.UnitValue }))
	}

	prog := core.Bind(core.NewMVar(0), func(account core.MVar[int]) core.IO[Report] {
		return core.Bind(conc.NewChan[int](), func(ch conc.Chan[int]) core.IO[Report] {
			return core.Bind(conc.NewQSem(2), func(gate conc.QSem) core.IO[Report] {
				return core.Bind(conc.NewPool(cfg.PoolSize), func(pool conc.Pool) core.IO[Report] {
					var victims []core.ThreadID
					fork := func(m core.IO[core.Unit]) core.IO[core.Unit] {
						return core.Bind(core.Fork(tracked(m)), func(tid core.ThreadID) core.IO[core.Unit] {
							mu.Lock()
							victims = append(victims, tid)
							mu.Unlock()
							return core.Return(core.UnitValue)
						})
					}

					// Locked-account workers: safe increments under the
					// §5.2 pattern, gated by the semaphore.
					worker := core.ForM_(make([]struct{}, cfg.Increments), func(struct{}) core.IO[core.Unit] {
						return core.Void(conc.With(gate, core.ModifyMVar(account, func(v int) core.IO[int] {
							return core.Then(core.Void(core.ReplicateM_(3, core.Return(core.UnitValue))),
								core.Return(v+1))
						})))
					})

					// Channel producers: tokens are globally unique ints.
					producer := func(base int) core.IO[core.Unit] {
						return core.ForM_(make([]struct{}, cfg.Tokens), func(struct{}) core.IO[core.Unit] {
							return core.Bind(core.Lift(func() int { base++; return base }), func(tok int) core.IO[core.Unit] {
								return ch.Write(tok)
							})
						})
					}

					// One consumer drains until told to stop (via kill or
					// the main thread's cleanup); it is never a victim so
					// received stays meaningful.
					consumer := core.Void(core.Forever(core.Bind(ch.Read(), func(tok int) core.IO[core.Unit] {
						return core.Lift(func() core.Unit {
							mu.Lock()
							received[tok]++
							mu.Unlock()
							return core.UnitValue
						})
					})))

					// Pool jobs: two-phase markers to detect tearing.
					job := core.Seq(
						core.Lift(func() core.Unit { jobsStarted.Add(1); return core.UnitValue }),
						core.Void(core.ReplicateM_(5, core.Return(core.UnitValue))),
						core.Lift(func() core.Unit { jobsFinished.Add(1); return core.UnitValue }),
					)

					// The chaos thread.
					chaosThread := func() core.IO[core.Unit] {
						rng := newRand(cfg.Seed * 7641361)
						var loop func(k int) core.IO[core.Unit]
						loop = func(k int) core.IO[core.Unit] {
							mu.Lock()
							nv := len(victims)
							var victim core.ThreadID
							if nv > 0 {
								victim = victims[rng.next(nv)]
							}
							mu.Unlock()
							if k >= cfg.Kills || nv == 0 {
								return core.Return(core.UnitValue)
							}
							return core.Seq(
								core.ThrowTo(victim, exc.Dyn{Tag: "Chaos"}),
								core.Yield(),
								core.Delay(func() core.IO[core.Unit] { return loop(k + 1) }),
							)
						}
						// Delay so the victim list is read at run time,
						// after setup has populated it.
						return core.Delay(func() core.IO[core.Unit] { return loop(0) })
					}

					setup := core.Return(core.UnitValue)
					for i := 0; i < cfg.Workers; i++ {
						setup = core.Then(setup, fork(worker))
					}
					for p := 0; p < cfg.Producers; p++ {
						setup = core.Then(setup, fork(producer(1000*(p+1))))
					}
					for j := 0; j < cfg.PoolJobs; j++ {
						setup = core.Then(setup, pool.Submit(job))
					}

					return core.Bind(core.Fork(tracked(consumer)), func(consumerTid core.ThreadID) core.IO[Report] {
						// Victims (not the consumer) exit on completion or
						// kill; the tracked Finally makes `exited` exact.
						victimsExited := core.IterateUntil(core.Then(core.Yield(),
							core.Lift(func() bool { return exited.Load() >= totalThreads.Load()-1 })))
						allExited := core.IterateUntil(core.Then(core.Yield(),
							core.Lift(func() bool { return exited.Load() >= totalThreads.Load() })))
						inspect := core.Bind(core.Try(core.Take(account)), func(acc core.Attempt[int]) core.IO[Report] {
							r := Report{}
							if acc.Failed() {
								r.Violations = append(r.Violations, "account lock lost: "+acc.Exc.String())
							} else {
								r.AccountValue = acc.Value
							}
							_ = consumerDone
							return core.Return(r)
						})
						return core.Then(core.Seq(
							setup,
							core.Void(core.Fork(chaosThread())),
							victimsExited,
							pool.Stop(),
							core.ThrowTo(consumerTid, exc.ThreadKilled{}),
							allExited,
						), inspect)
					})
				})
			})
		})
	})

	rep, e, err := core.RunSystem(sys, prog)
	if err != nil || e != nil {
		// Even a failed run reports its counters: the recorded-schedule
		// tooling labels persisted failures with them.
		st := sys.Stats()
		rep.Steps = st.Steps
		rep.KillsDelivered = st.Delivered
		rep.ThrowTos = st.ThrowTos
		if err != nil {
			return rep, err
		}
		return rep, fmt.Errorf("chaos: scenario main died: %s", exc.Format(e))
	}

	// --- invariants over the Go-side instrumentation ---
	maxAccount := cfg.Workers * cfg.Increments
	if rep.AccountValue < 0 || rep.AccountValue > maxAccount {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("account value %d out of range [0,%d]", rep.AccountValue, maxAccount))
	}
	for tok, n := range received {
		if n != 1 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("token %d delivered %d times", tok, n))
		}
	}
	rep.TokensReceived = len(received)
	if rep.TokensReceived > cfg.Producers*cfg.Tokens {
		rep.Violations = append(rep.Violations, "more tokens received than sent")
	}
	rep.JobsStarted, rep.JobsFinished = int(jobsStarted.Load()), int(jobsFinished.Load())
	if rep.JobsStarted != rep.JobsFinished {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("torn pool jobs: started %d, finished %d", rep.JobsStarted, rep.JobsFinished))
	}
	st := sys.Stats()
	rep.Steps = st.Steps
	rep.KillsDelivered = st.Delivered
	rep.ThrowTos = st.ThrowTos
	return rep, nil
}

// newRand is a tiny deterministic PRNG (xorshift) so the chaos thread
// does not depend on math/rand inside Lift closures.
type miniRand struct{ s uint64 }

// newRand seeds the PRNG. Seed 0 is a valid explicit seed: xorshift
// cannot hold state 0 (it would be a fixed point), so 0 maps to a
// fixed odd constant — deterministically, never to a random value, so
// `-seed 0` reproduces like any other seed.
func newRand(seed int64) *miniRand {
	if seed == 0 {
		seed = 0x9e3779b9
	}
	return &miniRand{s: uint64(seed)}
}

func (r *miniRand) next(n int) int {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return int(r.s % uint64(n))
}
