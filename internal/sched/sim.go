package sched

import (
	"errors"
	"math/bits"
	"time"
)

// This file is the runtime half of the deterministic-simulation
// subsystem (internal/sim, docs/SIMULATION.md): a seam through which
// every scheduling decision the runtime makes — run-queue picks, shard
// turns, steal victims, timer firings, external-event order — can be
// observed (recording) or forced (replay), plus a small set of
// interpose points the mutation-testing pass uses to seed semantic
// bugs at the paper's delivery points.
//
// Under Options.Sim the engine is the live one with a forced picker:
// instead of spawning worker goroutines, runSimulated steps all shards
// from ONE goroutine, one bounded turn (the workers' own turn function)
// at a time. Shard state (run queues, mailboxes, ownership, the message
// protocol) and every pick (popLocal's pickRun, steal, quiesceLocked)
// are exactly the live engine's, each consulting the SimSource; only
// the interleaving of shards comes from the driver, which makes a
// seeded multi-shard chaos run fully deterministic and therefore
// recordable and replayable. A recording source returns -1 from every
// Pick ("runtime decides"), so a recorded one-shard run draws exactly
// the same seeded random numbers as an unrecorded one and takes the
// same steps.
//
// The seam costs nothing when Options.Sim is nil: every hook is a
// nil-check short-circuit (gated by the S2 recording-overhead table).

// SimKind tags a SimEvent; the values are the on-disk record kinds of
// internal/sim's schedule log and must not be renumbered.
type SimKind uint8

const (
	// SimPickShard: the driver gave a turn to Shard; A is the bitmask
	// of shards that were candidates. Emitted only when more than one
	// shard was a candidate.
	SimPickShard SimKind = 1
	// SimPickRun: a random-scheduler run-queue pick on Shard; A is the
	// queue length, B the chosen index.
	SimPickRun SimKind = 2
	// SimSteal: a steal attempt by Shard; A is the victim candidate
	// bitmask, B packs (victim+1)<<48 | stolen thread id (0 = failed).
	SimSteal SimKind = 3
	// SimAdvance: the virtual clock jumped to B nanoseconds.
	SimAdvance SimKind = 4
	// SimExternal: an external event with label B was applied on Shard;
	// A is how many events were buffered when it was chosen.
	SimExternal SimKind = 5
	// SimMsg: a cross-shard mailbox message was applied on Shard; A is
	// the message kind, B the target thread id.
	SimMsg SimKind = 6
	// SimDeliver: an asynchronous exception was raised in thread B on
	// Shard; A is an FNV-32a hash of the exception name.
	SimDeliver SimKind = 7
	// SimSignal: a non-lethal signal was delivered to thread B on
	// Shard; A is an FNV-32a hash of the signal name.
	SimSignal SimKind = 8
	// SimEnd: the run completed; B is the total step count.
	SimEnd SimKind = 9
)

// String renders a SimKind.
func (k SimKind) String() string {
	switch k {
	case SimPickShard:
		return "shard"
	case SimPickRun:
		return "pick"
	case SimSteal:
		return "steal"
	case SimAdvance:
		return "advance"
	case SimExternal:
		return "external"
	case SimMsg:
		return "msg"
	case SimDeliver:
		return "deliver"
	case SimSignal:
		return "signal"
	case SimEnd:
		return "end"
	default:
		return "?"
	}
}

// SimEvent is one observed scheduling decision or delivery: a fixed,
// pointer-free record (the obs.Event discipline) that doubles as the
// schedule log's on-disk record shape.
type SimEvent struct {
	Kind  SimKind
	Shard uint8
	A     uint32
	B     uint64
}

// InterposePoint names a semantic seam the mutation-testing pass can
// perturb (see internal/sim's mutant catalogue).
type InterposePoint uint8

const (
	// IpPendingIndex: which pending exception to dequeue at a delivery
	// point. Return an index (0 = FIFO front, the correct behavior); one
	// that names no exception (-1, a signal) keeps the default.
	IpPendingIndex InterposePoint = 1
	// IpDeliverMasked: return 1 to deliver a pending exception at a
	// masked redex (violates rule (Receive)'s side condition).
	IpDeliverMasked InterposePoint = 2
	// IpDropUnpark: return 1 to drop a wakeup (the unparked thread
	// stays parked forever).
	IpDropUnpark InterposePoint = 3
	// IpNoInterrupt: return 1 to queue an exception for a stuck
	// interruptible target instead of applying rule (Interrupt).
	IpNoInterrupt InterposePoint = 4
	// IpSignalFirst: return 1 to deliver a queued signal ahead of a
	// pending exception (exceptions must strictly win).
	IpSignalFirst InterposePoint = 5
)

// SimCaps advertises which decision seams a SimSource actually uses.
// The scheduler caches the answer at startup and skips interface calls
// on unused seams in its hot paths: a passive recorder pays only the
// Observe appends, not a Pick* round trip per run-queue draw plus an
// Interpose round trip per delivery and unpark.
type SimCaps uint8

const (
	// SimCapPick: the source may force Pick* decisions (replayers).
	SimCapPick SimCaps = 1 << iota
	// SimCapInterpose: the source may perturb semantic seams (mutants).
	SimCapInterpose

	// SimCapAll is the safe default: consult every seam.
	SimCapAll = SimCapPick | SimCapInterpose
)

// SimSource is the decision seam consulted when Options.Sim is set.
// Pick methods may force a choice or return -1 to let the runtime use
// its live (seeded) policy; Observe receives every decision actually
// taken, in execution order. A recorder returns -1 everywhere and
// appends in Observe; a replayer forces the logged values and uses
// Observe to detect divergence. Interpose is the mutation seam: the
// default (-1, or 0 for IpPendingIndex) is always the correct
// semantics.
//
// All methods are called from the simulation driver's goroutine only:
// implementations need no locking.
type SimSource interface {
	// PickShard chooses the next shard to run a turn; candidates is a
	// bitmask of eligible shards. -1 = driver's seeded choice.
	PickShard(candidates uint32) int
	// PickRun chooses the run-queue index to pop on shard (random
	// scheduler only). -1 = the runtime's seeded draw.
	PickRun(shard, qlen int) int
	// PickSteal chooses a steal victim for thief; candidates is a
	// bitmask of shards with queued work. -1 = seeded choice, -2 = do
	// not steal this turn.
	PickSteal(thief int, candidates uint32) int
	// PickExternal orders held-back External callbacks; labels are
	// their labels in arrival order. -1 = FIFO.
	PickExternal(labels []uint64) int
	// Observe receives every decision and delivery, in order.
	Observe(ev SimEvent)
	// Interpose perturbs a semantic seam (mutation testing); return -1
	// for the correct behavior.
	Interpose(pt InterposePoint, t *Thread) int
	// Capabilities reports which seams the source uses; the scheduler
	// never calls Pick* without SimCapPick or Interpose without
	// SimCapInterpose. Observe is always called.
	Capabilities() SimCaps
}

// DefaultSource is a SimSource that changes nothing: every Pick defers
// to the runtime, Observe discards, Interpose keeps the correct
// semantics. Embed it to implement only the methods a source cares
// about.
type DefaultSource struct{}

// PickShard defers to the driver's seeded choice.
func (DefaultSource) PickShard(uint32) int { return -1 }

// PickRun defers to the runtime's seeded draw.
func (DefaultSource) PickRun(int, int) int { return -1 }

// PickSteal defers to the runtime's seeded choice.
func (DefaultSource) PickSteal(int, uint32) int { return -1 }

// PickExternal keeps arrival order.
func (DefaultSource) PickExternal([]uint64) int { return -1 }

// Observe discards the event.
func (DefaultSource) Observe(SimEvent) {}

// Interpose keeps the correct semantics.
func (DefaultSource) Interpose(InterposePoint, *Thread) int { return -1 }

// Capabilities claims every seam: the safe default. A source that
// overrides a seam method but narrows its capabilities would silently
// never be consulted, so only observe-only sources (recorders) should
// override this.
func (DefaultSource) Capabilities() SimCaps { return SimCapAll }

// SimHash is the FNV-32a hash SimDeliver/SimSignal records carry for
// exception and signal names (pointer-free, stable across runs).
func SimHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// errSimRealClock rejects simulation under the real clock: wall time
// is inherently nondeterministic, so recorded schedules could never
// replay.
var errSimRealClock = errors.New("sched: simulation mode requires the virtual clock")

// simObserve forwards ev to the configured source, if any.
func (rt *RT) simObserve(ev SimEvent) {
	if s := rt.opts.Sim; s != nil {
		s.Observe(ev)
	}
}

// bindSimCaps caches the source's capability mask on this RT (shards
// cache it too — see buildEngine).
func (rt *RT) bindSimCaps() {
	if s := rt.opts.Sim; s != nil {
		caps := s.Capabilities()
		rt.simPick = caps&SimCapPick != 0
		rt.simPerturb = caps&SimCapInterpose != 0
	}
}

// simSeam consults the boolean mutation seam ip (IpDeliverMasked,
// IpSignalFirst, IpNoInterrupt, IpDropUnpark) for t.
func (rt *RT) simSeam(ip InterposePoint, t *Thread) bool {
	return rt.simPerturb && rt.opts.Sim.Interpose(ip, t) == 1
}

// simPendingIndex returns the index of the pending exception to raise
// next, or -1 when only signals are queued: the oldest one, unless the
// IpPendingIndex mutation seam names another.
func (rt *RT) simPendingIndex(t *Thread) int {
	if s := rt.opts.Sim; rt.simPerturb && s != nil && len(t.pending) > 1 {
		if i := s.Interpose(IpPendingIndex, t); i > 0 && i < len(t.pending) && t.pending[i].lethal() {
			return i
		}
	}
	for i, p := range t.pending {
		if p.lethal() {
			return i
		}
	}
	return -1
}

// applyExternalsSim applies the External callbacks the mailbox drain
// held back, in source-chosen order (replay forces the recorded arrival
// order; recording keeps FIFO and logs the labels). Externals are
// logged as SimExternal, never as SimMsg.
func (rt *RT) applyExternalsSim() {
	src := rt.opts.Sim
	for len(rt.simExt) > 0 {
		idx := 0
		if rt.simPick && len(rt.simExt) > 1 {
			labels := make([]uint64, len(rt.simExt))
			for i := range rt.simExt {
				labels[i] = rt.simExt[i].seq
			}
			if p := src.PickExternal(labels); p >= 0 && p < len(rt.simExt) {
				idx = p
			}
		}
		n := len(rt.simExt)
		m := rt.simExt[idx]
		copy(rt.simExt[idx:], rt.simExt[idx+1:])
		rt.simExt[n-1] = shardMsg{}
		rt.simExt = rt.simExt[:n-1]
		src.Observe(SimEvent{Kind: SimExternal, Shard: uint8(rt.shardID), A: uint32(n), B: m.seq})
		m.v.(func(*RT))(rt)
	}
}

// runSimulated is RunMain's scheduler loop under a SimSource: the
// cooperative simulation driver. All shards are stepped from this one
// goroutine, a turn at a time, with the choice of shard — like every
// choice inside the turn — routed through the source.
func (rt *RT) runSimulated() {
	e := rt.eng
	src := e.opts.Sim
	for !e.stopped.Load() {
		// A shard is a candidate for a turn when it has work of its own
		// (a kept or queued thread, mailbox messages) or could steal (it
		// has none and a sibling queues an unpinned thread) — the same
		// conditions that keep a live worker out of idleShard.
		var busy, free uint32
		anyQ := false
		for i, s := range e.shards {
			bit := uint32(1) << uint(i)
			switch {
			case s.queued.Load() > 0:
				busy |= bit
				anyQ = anyQ || s.queued.Load()>>32 > 0
			case s.kept != nil || s.mailN.Load() > 0:
				busy |= bit
			default:
				free |= bit
			}
		}
		mask := busy
		if anyQ {
			mask |= free
		}
		if mask == 0 {
			// Global quiescence, the driver's idleShard.
			if acted, err := rt.quiesceLocked(); err != nil {
				e.finish(Result{}, err)
			} else if !acted {
				e.simAwaitOutside()
			}
			continue
		}
		pick := bits.TrailingZeros32(mask)
		sole := mask&(mask-1) == 0
		if !sole {
			pick = -1
			if rt.simPick {
				pick = src.PickShard(mask)
			}
			if pick < 0 || pick >= len(e.shards) || mask&(1<<uint(pick)) == 0 {
				// The driver's seeded choice: the k-th candidate.
				k := rt.simRng().Intn(bits.OnesCount32(mask))
				for pick = 0; ; pick++ {
					if mask&(1<<uint(pick)) != 0 {
						if k == 0 {
							break
						}
						k--
					}
				}
			}
			src.Observe(SimEvent{Kind: SimPickShard, Shard: uint8(pick), A: mask})
		}
		// While the shard was the only candidate and nothing is queued or
		// in flight anywhere, the scan above would find it alone again:
		// keep stepping it.
		for s := e.shards[pick]; s.turn() && sole && e.runnable.Load() == 0 && e.msgs.Load() == 0 && !e.stopped.Load(); {
		}
	}
	var steps uint64
	for _, s := range e.shards {
		s.publishStats()
		steps += s.statsSnap.Steps
	}
	if e.runErr == nil {
		src.Observe(SimEvent{Kind: SimEnd, B: steps})
	}
}

// simAwaitOutside waits, with every shard quiescent, for a completion
// from a real goroutine (I/O manager, cluster links) to arrive as a
// mailbox message, by polling. The wait itself is not a scheduling
// decision and is not recorded — only the chosen application order is.
func (e *engine) simAwaitOutside() {
	for !e.stopped.Load() {
		for _, s := range e.shards {
			if s.mailN.Load() > 0 {
				return
			}
		}
		if e.outstandingIO.Load() == 0 && !e.shards[0].console.waitingReaders() {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// simRng is the driver's own decision stream: shard 0's rng would also
// be consumed by run-queue picks, so the driver derives a separate
// seeded stream the first time it is needed.
func (rt *RT) simRng() *simXorshift {
	if rt.simDrng == nil {
		s := uint64(rt.opts.Seed) ^ 0x736861726473696d
		if s == 0 {
			s = 0x9e3779b97f4a7c15
		}
		rt.simDrng = &simXorshift{s: s}
	}
	return rt.simDrng
}

// simXorshift is the driver's tiny seeded PRNG (xorshift64).
type simXorshift struct{ s uint64 }

// Intn returns a value in [0, n).
func (r *simXorshift) Intn(n int) int {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return int(r.s % uint64(n))
}
