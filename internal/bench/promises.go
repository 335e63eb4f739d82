package bench

import (
	"fmt"
	"runtime"
	"time"

	"asyncexc/internal/core"
)

// Promises builds the P2 table: the promise/await suite measuring
// (a) the await round-trip against the equivalent MVar park/wake and
// (b) the speculative 3-way fan-out on promises (one shared
// speculation promise; resolve-once selects the winner and the first
// settlement reaps the losers) against the §7.2 kill-based racing
// that nested EitherIO performs (fork pairs, relay loop, kill both
// children per layer). The fan-out comparison is the headline: the
// promise path forks three producers into one scheduler object and
// sends two PromiseCancelled interrupts, where the kill path forks
// four threads across two EitherIO layers, relays results through
// MVars, and kills every child — the CI promises job gates on the
// promise path staying ≥2x faster at 4 shards (TestPromisesGate).
//
// Like H1 this table is wall-clock and machine-dependent; the
// calibrate-spin row records the machine's speed so the gate can
// compare machine-normalized rates.

// PromisesConfig sizes the P2 suite.
type PromisesConfig struct {
	// Rounds is the ping-pong round count for the round-trip rows.
	Rounds int
	// Races is the number of 3-way fan-outs per fan-out row.
	Races int
	// Shards lists the shard counts to measure (1 = the default, one shard).
	Shards []int
}

// DefaultPromisesConfig is the full suite run by axbench -run P2.
func DefaultPromisesConfig() PromisesConfig {
	return PromisesConfig{Rounds: 30_000, Races: 3_000, Shards: []int{1, 4}}
}

// ShortPromisesConfig is the CI smoke/gate variant: same shape,
// smaller, still in the steady state.
func ShortPromisesConfig() PromisesConfig {
	return PromisesConfig{Rounds: 6_000, Races: 800, Shards: []int{1, 4}}
}

// Promises runs the suite and builds the P2 table. Every row is the
// best of hotLoopTrials runs.
func Promises(cfg PromisesConfig) *Table {
	t := &Table{
		ID:      "P2",
		Title:   "promises: await vs MVar round-trip, speculative fan-out vs kill-based racing",
		Columns: []string{"workload", "shards", "rate", "unit", "speedup"},
	}
	calib := bestOf(hotLoopTrials, CalibrateSpin)
	t.AddRow("calibrate-spin", "-", fmtRate(calib), "spins/sec", "")

	for _, shards := range cfg.Shards {
		sh := shards
		mv := bestOf(hotLoopTrials, func() float64 { return MVarRoundTripRate(sh, cfg.Rounds) })
		aw := bestOf(hotLoopTrials, func() float64 { return AwaitRoundTripRate(sh, cfg.Rounds) })
		t.AddRow("mvar-roundtrip", shards, fmtRate(mv), "rounds/sec", "")
		t.AddRow("await-roundtrip", shards, fmtRate(aw), "rounds/sec", fmt.Sprintf("%.2fx vs mvar", aw/mv))
	}
	for _, shards := range cfg.Shards {
		sh := shards
		kill := bestOf(hotLoopTrials, func() float64 { return FanoutKillRate(sh, cfg.Races) })
		prom := bestOf(hotLoopTrials, func() float64 { return FanoutPromiseRate(sh, cfg.Races) })
		t.AddRow("fanout-kill", shards, fmtRate(kill), "races/sec", "")
		t.AddRow("fanout-promise", shards, fmtRate(prom), "races/sec", fmt.Sprintf("%.2fx vs kill", prom/kill))
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("each row is the best of %d trials; wall-clock and machine-dependent", hotLoopTrials),
		"round-trip rows: one parked reader woken per round — await additionally creates and hands off a fresh promise each round",
		"fan-out rows: 3-way speculative race per iteration — promise path reaps 2 losers on first settlement, kill path is nested EitherIO killing 4 children",
		"the CI promises job gates on calibrate-normalized rates plus a hard >=2x fanout speedup at 4 shards (TestPromisesGate)",
		fmt.Sprintf("measured with GOMAXPROCS=%d on %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	return t
}

// MVarRoundTripRate measures MVar park/wake round-trips per second:
// a consumer takes from ping and puts to pong, the main thread puts
// and takes — every round parks the consumer once (take on empty)
// and wakes it with the handoff.
func MVarRoundTripRate(shards, rounds int) float64 {
	opts := core.ParallelOptions(shards)
	sys := core.NewSystem(opts)
	prog := core.Bind(core.NewEmptyMVar[int](), func(ping core.MVar[int]) core.IO[core.Unit] {
		return core.Bind(core.NewEmptyMVar[int](), func(pong core.MVar[int]) core.IO[core.Unit] {
			consumer := core.ReplicateM_(rounds, core.Bind(core.Take(ping), func(v int) core.IO[core.Unit] {
				return core.Put(pong, v+1)
			}))
			round := core.Then(core.Put(ping, 1), core.Void(core.Take(pong)))
			return core.Then(core.Void(core.ForkNamed(consumer, "consumer")),
				core.ReplicateM_(rounds, round))
		})
	})
	start := time.Now()
	if _, e, err := core.RunSystem(sys, prog); err != nil || e != nil {
		panic(fmt.Sprintf("bench: promises mvar shards=%d: %v %v", shards, e, err))
	}
	wall := time.Since(start)
	return float64(rounds) / wall.Seconds()
}

// AwaitRoundTripRate measures promise await/resolve round-trips per
// second: each round the main thread creates a promise, hands it to
// the resolver through an MVar, and awaits it — the await parks (the
// resolver is behind the handoff) and the resolve wakes it, the
// promise analogue of the MVar round-trip's park/wake.
func AwaitRoundTripRate(shards, rounds int) float64 {
	opts := core.ParallelOptions(shards)
	sys := core.NewSystem(opts)
	prog := core.Bind(core.NewEmptyMVar[core.Promise[int]](), func(req core.MVar[core.Promise[int]]) core.IO[core.Unit] {
		resolver := core.ReplicateM_(rounds, core.Bind(core.Take(req), func(p core.Promise[int]) core.IO[core.Unit] {
			return core.Void(core.Resolve(p, 1))
		}))
		round := core.Bind(core.NewPromise[int]("rt"), func(p core.Promise[int]) core.IO[core.Unit] {
			return core.Then(core.Put(req, p), core.Void(core.Await(p)))
		})
		return core.Then(core.Void(core.ForkNamed(resolver, "resolver")),
			core.ReplicateM_(rounds, round))
	})
	start := time.Now()
	if _, e, err := core.RunSystem(sys, prog); err != nil || e != nil {
		panic(fmt.Sprintf("bench: promises await shards=%d: %v %v", shards, e, err))
	}
	wall := time.Since(start)
	return float64(rounds) / wall.Seconds()
}

// fanoutWinner is the immediate alternative; fanoutLoser parks in a
// (virtual-clock) sleep and is torn down by the race — cancellation
// on the promise path, ThreadKilled on the EitherIO path. Both paths
// race identical computations.
func fanoutWinner() core.IO[string] { return core.Return("win") }
func fanoutLoser() core.IO[string] {
	return core.Then(core.Sleep(time.Hour), core.Return("lose"))
}

// FanoutPromiseRate measures speculative 3-way fan-outs per second on
// the promise path: Speculate forks three producers of one shared
// promise, resolve-once picks the winner, and the settlement reaps
// the two parked losers with PromiseCancelled — no kill-and-respawn
// anywhere.
func FanoutPromiseRate(shards, races int) float64 {
	opts := core.ParallelOptions(shards)
	sys := core.NewSystem(opts)
	race := core.Bind(core.Speculate("fan", fanoutLoser(), fanoutWinner(), fanoutLoser()),
		func(w string) core.IO[core.Unit] {
			if w != "win" {
				return core.Void(core.ThrowErrorCall[core.Unit]("wrong winner: " + w))
			}
			return core.Return(core.UnitValue)
		})
	prog := core.ReplicateM_(races, race)
	start := time.Now()
	if _, e, err := core.RunSystem(sys, prog); err != nil || e != nil {
		panic(fmt.Sprintf("bench: promises fanout shards=%d: %v %v", shards, e, err))
	}
	wall := time.Since(start)
	return float64(races) / wall.Seconds()
}

// FanoutKillRate measures the same 3-way race built the §7.2 way:
// nested EitherIO, which forks two children per layer (four threads
// per race, one of them itself an EitherIO) and kills both children
// of each layer once a winner arrives.
func FanoutKillRate(shards, races int) float64 {
	opts := core.ParallelOptions(shards)
	sys := core.NewSystem(opts)
	race := core.Bind(core.EitherIO(fanoutLoser(), core.EitherIO(fanoutWinner(), fanoutLoser())),
		func(r core.Either[string, core.Either[string, string]]) core.IO[core.Unit] {
			if r.IsLeft || r.Right.IsLeft && r.Right.Left != "win" {
				return core.Void(core.ThrowErrorCall[core.Unit]("wrong winner"))
			}
			return core.Return(core.UnitValue)
		})
	prog := core.ReplicateM_(races, race)
	start := time.Now()
	if _, e, err := core.RunSystem(sys, prog); err != nil || e != nil {
		panic(fmt.Sprintf("bench: promises kill-fanout shards=%d: %v %v", shards, e, err))
	}
	wall := time.Since(start)
	return float64(races) / wall.Seconds()
}
