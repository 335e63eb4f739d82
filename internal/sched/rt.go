package sched

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// Options configures a runtime.
type Options struct {
	// TimeSlice is the number of interpreter steps a thread runs
	// before being preempted. The paper's Concurrent Haskell allows
	// both cooperative and preemptive implementations (§4); a slice of
	// 1 interleaves at every transition like the semantics, larger
	// slices model GHC-style coarser preemption. Default 50.
	TimeSlice int
	// Clock selects virtual (default) or real time.
	Clock ClockMode
	// RandomSched, when set, picks the next runnable thread pseudo-
	// randomly using Seed instead of round-robin; used by interleaving
	// stress tests.
	RandomSched bool
	// Seed seeds the random scheduler.
	Seed int64
	// SyncThrowTo selects the §9 design alternative in which throwTo
	// waits for the exception to be delivered and is itself
	// interruptible.
	SyncThrowTo bool
	// DetectDeadlock, when set (default via NewRT), wakes threads that
	// are blocked forever with BlockedIndefinitely instead of hanging,
	// mirroring GHC. Disable to recover the paper's exact semantics
	// (stuck threads simply never move).
	DetectDeadlock bool
	// MaxSteps aborts RunMain with ErrFuelExhausted after this many
	// steps; 0 means unlimited. Tests use it to bound divergence.
	MaxSteps uint64
	// MaxStack bounds each thread's continuation stack; exceeding it
	// raises StackOverflow in the offending thread. 0 means unlimited.
	MaxStack int
	// Stdout, when non-nil, mirrors console output as it happens.
	Stdout io.Writer
	// Stdin provides initial console input.
	Stdin string
	// Observer, when non-nil, records fixed-shape obs.Events at the
	// paper's delivery points (spawn, throwTo enqueue/deliver, catch,
	// park/unpark, steal, ...) into per-shard ring buffers; see
	// internal/obs and docs/OBSERVABILITY.md. It is designed for
	// production use: the hot path takes no locks and allocates
	// nothing.
	Observer *obs.Recorder
	// DisableFrameCancellation turns off the §8.1 adjacent-frame
	// cancellation (ablation switch for experiment E7).
	DisableFrameCancellation bool
	// Shards is the number of shards the engine runs on: worker
	// goroutines with per-shard run queues, timer heaps and mailboxes,
	// plus work stealing (see shard.go and docs/PARALLEL.md). 0 or 1
	// (the default) is the engine with one shard, run on the goroutine
	// that calls RunMain: nothing can be stolen and no sibling exists,
	// so under the virtual clock the run is deterministic — the mode
	// the machine/conformance suites check against.
	Shards int
	// Sim, when non-nil, routes every nondeterministic scheduling
	// decision through the deterministic-simulation seam (see sim.go,
	// internal/sim and docs/SIMULATION.md): decisions are observed
	// (recording) or forced (replay), and the shards are stepped by a
	// single-goroutine cooperative driver instead of worker goroutines
	// so the whole interleaving is deterministic. Requires the virtual
	// clock.
	Sim SimSource
}

// Result is the outcome of the main thread.
type Result struct {
	// Value is the main thread's return value when Exc is nil.
	Value any
	// Exc is the uncaught exception that terminated the main thread,
	// if any.
	Exc exc.Exception
}

// Errors returned by RunMain.
var (
	// ErrFuelExhausted reports that Options.MaxSteps was reached.
	ErrFuelExhausted = errors.New("sched: step budget exhausted")
	// ErrDeadlock reports a global deadlock with deadlock detection
	// disabled.
	ErrDeadlock = errors.New("sched: all threads blocked and no external events possible")
)

// RT is one shard of a runtime: a run queue, a timer heap, a mailbox
// and the per-shard interpreter state, stepped by one goroutine at a
// time. Together the shards of an engine hold Figure 2's program state
// (threads and MVars evolving by transitions) plus the scheduling
// machinery of §8. The RT that NewRT returns is shard 0, whose mailbox
// also carries External callbacks; everything shared between shards
// lives in the engine (shard.go). Shard-private state is owned by the
// goroutine stepping the shard; other goroutines communicate only
// through the mailbox, which External enters.
type RT struct {
	opts Options

	// simPick/simPerturb cache opts.Sim.Capabilities() so the hot
	// paths can skip interface calls on seams the source never uses
	// (a recorder neither forces picks nor perturbs seams).
	simPick    bool
	simPerturb bool

	qfree  int32 // runq's unpinned (stealable) threads; fills padding, so RT stays 1152 bytes
	runq   ringQ
	timers timerHeap

	console *console

	rng *rand.Rand

	// simExt holds msgExternal messages taken from the mailbox but not
	// yet applied: under simulation their application order is a
	// recorded decision (PickExternal), so the mailbox drain holds them
	// here and applyExternalsSim applies them at the end of the turn.
	// simDrng is the simulation driver's own seeded decision stream
	// (see simRng).
	simExt  []shardMsg
	simDrng *simXorshift

	stats Stats

	// olog is this shard's obs event log (nil when no Observer).
	olog *obs.ShardLog

	// Hot-path free lists (owned by the shard goroutine, like all other
	// per-RT state): recycled bind/catch frames and thread stack
	// segments.
	freeBind   []*bindFrame
	freeCatch  []*catchFrame
	freeStacks [][]frame

	// kept is the run-queue bypass: when a slice ends with the thread
	// still runnable and the run queue empty, the thread is carried
	// here to the next slice instead of round-tripping through the
	// queue. Order-identical to the queue path (an empty queue would
	// push and immediately pop the same thread).
	kept *Thread

	// stealCands is steal's reusable scratch list of victim shards.
	stealCands []int

	// iter counts scheduler turns; stats publication and the real-clock
	// resync are amortized over it.
	iter uint

	// fuelSeen is the engine-wide step count as of this shard's last
	// charge against Options.MaxSteps (see runSlice).
	fuelSeen uint64

	// smu guards the run queue, timer heap and statsSnap.
	eng     *engine
	shardID int
	smu     sync.Mutex
	// mailMu guards mail, the cross-shard mailbox: one unbounded list
	// that send appends to and processMailbox swaps whole for
	// mailSpare, the emptied list of its previous drain. Its backlog is
	// visible as Stats.MailboxDepth (high water) and MailboxDepths
	// (live).
	mailMu    sync.Mutex
	mail      []shardMsg
	mailSpare []shardMsg
	// mailN counts queued-but-unapplied mailbox messages — the
	// "mailbox non-empty" flag the worker loop probes instead of
	// locking mailMu. Its high water is sampled consumer-side at each
	// processMailbox entry into Stats.MailboxDepth, keeping maximum
	// tracking off the producer fast path.
	mailN atomic.Int64
	// queued packs runq.Len() and, from bit 32, qfree for lock-free
	// probes; both change under smu, and one store publishes both.
	queued atomic.Uint64
	// idling marks the worker as parked (or about to park) in
	// idleShard. Wakes are Dekker-paired with it: a producer raises
	// its counter (mailN/queued) and then wakes only an idling
	// shard; the worker sets idling and then re-checks every counter
	// before sleeping, so one side always observes the other.
	idling atomic.Bool
	// statsReq asks the worker to refresh statsSnap at its next loop
	// iteration (copy-on-demand stats publication).
	statsReq atomic.Bool
	// timerN counts entries in this shard's timer heap so the clock
	// path skips the heap lock when no timers exist.
	timerN atomic.Int64
	// idleTimer is idleShard's reusable timer.
	idleTimer *time.Timer
	wakeCh    chan struct{}
	statsSnap Stats
}

// NewRT creates a runtime with the given options (zero value = paper
// defaults: preemptive 50-step slices, virtual clock, asynchronous
// throwTo, deadlock detection on, one shard).
func NewRT(opts Options) *RT {
	if opts.TimeSlice <= 0 {
		opts.TimeSlice = 50
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	rt := &RT{
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	rt.bindSimCaps()
	rt.console = &console{in: []rune(opts.Stdin), mirror: opts.Stdout}
	rt.buildEngine()
	return rt
}

// DefaultOptions returns the options NewRT treats as the paper
// defaults, with deadlock detection enabled.
func DefaultOptions() Options {
	return Options{TimeSlice: 50, DetectDeadlock: true}
}

// Stats returns a copy of the runtime's counters, aggregated over the
// shards (see also ShardStats).
func (rt *RT) Stats() Stats {
	var sum Stats
	for _, s := range rt.ShardStats() {
		sum.Add(s)
	}
	return sum
}

// Now returns the current runtime clock in nanoseconds.
func (rt *RT) Now() int64 { return rt.nowNS() }

// nowNS reads the engine clock.
func (rt *RT) nowNS() int64 { return rt.eng.now.Load() }

// Thread returns the thread with the given id, or nil if it has
// finished (finished threads are garbage collected, rule Proc GC).
func (rt *RT) Thread(id ThreadID) *Thread { return rt.eng.table.get(id) }

// MainThread returns the main thread (valid during and after RunMain).
func (rt *RT) MainThread() *Thread { return rt.eng.mainThread }

// External schedules f to run inside the scheduler loop, on shard 0.
// It is the only safe way for other goroutines (I/O manager
// completions, signal handlers, test drivers) to touch runtime state.
// f travels as a msgExternal through shard 0's mailbox, so it never
// blocks the caller or the scheduler: the mailbox has no bound, and a
// flood grows it like any other cross-shard traffic (Stats.MailboxDepth
// and MailboxDepths show the backlog).
func (rt *RT) External(f func(*RT)) {
	rt.ExternalLabeled(0, f)
}

// ExternalLabeled is External with a stable identifying label recorded
// into simulation schedule logs (see docs/SIMULATION.md); cluster frame
// dispatch labels injects by peer and sequence number so replay can
// match arrival orders across runs.
func (rt *RT) ExternalLabeled(label uint64, f func(*RT)) {
	e := rt.eng
	e.send(e.shards[0], shardMsg{kind: msgExternal, seq: label, v: f})
}

// Spawn creates an unmasked thread running m with no parent and
// returns its id — the environment-side fork used by internal/cluster
// to inject remotely requested work. Like Interrupt it must run
// inside the scheduler: call it from an External callback.
func (rt *RT) Spawn(m Node, name string) ThreadID {
	return rt.spawn(m, name, Unmasked, 0).id
}

// spawn creates a thread running m. Per the revised (Fork) rule the
// child starts with the supplied mask state (its parent's). parent is
// 0 for the main thread.
func (rt *RT) spawn(m Node, name string, mask MaskState, parent ThreadID) *Thread {
	t := rt.newThread(m, name, mask)
	rt.publish(t, parent)
	return t
}

// newThread constructs a thread without publishing it: it is not yet
// in the table or run queue, so no other shard can see (or steal) it.
// Callers that must wire up state the thread's first steps — or its
// concurrently-running siblings — depend on (promise producer
// registration, say) do so between newThread and publish.
func (rt *RT) newThread(m Node, name string, mask MaskState) *Thread {
	id := ThreadID(rt.eng.nextTID.Add(1))
	return &Thread{id: id, name: name, rt: rt, cur: m, mask: mask, status: statusRunnable, stack: rt.getStack()}
}

// publish makes a constructed thread visible and runnable on its shard
// t.rt: enqueued here, or sent there as a msgAdopt. The spawn event is
// recorded first: once enqueued the thread can be stolen and run, and
// obsSpawn reads its mask.
func (rt *RT) publish(t *Thread, parent ThreadID) {
	t.owner.Store(t.rt)
	rt.eng.table.put(t)
	rt.eng.live.Add(1)
	rt.stats.Forks++
	rt.obsSpawn(t, parent)
	if t.rt == rt {
		rt.enqueue(t)
	} else {
		rt.eng.send(t.rt, shardMsg{kind: msgAdopt, t: t})
	}
}

// spawnOn is spawn with explicit shard placement: the child is created
// already owned by the target shard and travels there as a msgAdopt
// mailbox message, so it never touches the spawner's run queue and
// cannot run (or be stolen) before its owner enqueues it.
func (rt *RT) spawnOn(shard int, m Node, name string, mask MaskState, parent ThreadID) *Thread {
	n := len(rt.eng.shards)
	t := rt.newThread(m, name, mask)
	t.rt, t.pinned = rt.eng.shards[((shard%n)+n)%n], true
	rt.publish(t, parent)
	return t
}

// RunMain runs main as the main thread until it finishes (rule Proc
// GC: when the main thread is done, all other threads die), the step
// budget runs out, or an undetectable deadlock occurs. Shard 0 runs on
// the calling goroutine, every further shard on a goroutine of its
// own; under Options.Sim the cooperative driver steps them all from
// the calling goroutine instead (sim.go).
func (rt *RT) RunMain(main Node) (Result, error) {
	e := rt.eng
	if e.mainThread != nil {
		return Result{}, errors.New("sched: RunMain called twice on one RT")
	}
	if e.opts.Sim != nil {
		if e.opts.Clock == RealClock {
			return Result{}, errSimRealClock
		}
		if len(e.shards) > 32 {
			return Result{}, errors.New("sched: simulation mode supports at most 32 shards")
		}
	}
	e.realEpoch = time.Now()
	e.mainThread = rt.spawn(main, "main", Unmasked, 0)
	if e.opts.Sim != nil {
		rt.runSimulated()
	} else {
		var wg sync.WaitGroup
		for _, s := range e.shards[1:] {
			wg.Add(1)
			go func(s *RT) {
				defer wg.Done()
				s.workerLoop()
			}(s)
		}
		rt.workerLoop()
		wg.Wait()
	}
	// Rule (Proc GC): once the main thread is finished, all other
	// threads die.
	e.table.clear()
	if e.runErr != nil {
		return Result{}, e.runErr
	}
	return e.result, nil
}

// runSlice runs t for up to one time slice. The fuel check is hoisted
// out of the step loop: the slice is capped up front to what remains of
// the engine-wide budget as this shard last saw it, and a thread that
// attempts a slice with the budget spent fails the run. With one shard
// that view is exact, so Stats().Steps <= MaxSteps; siblings learn of
// each other's steps only when they charge their own, so together they
// may overshoot by up to a slice each.
func (rt *RT) runSlice(t *Thread) {
	e := rt.eng
	t.sliceLeft = rt.opts.TimeSlice
	max := e.opts.MaxSteps
	if max > 0 {
		if rt.fuelSeen >= max {
			e.finish(Result{}, ErrFuelExhausted)
			return
		}
		if left := max - rt.fuelSeen; uint64(t.sliceLeft) > left {
			t.sliceLeft = int(left)
		}
	}
	before := rt.stats.Steps
	for t.sliceLeft > 0 && t.status == statusRunnable {
		t.sliceLeft--
		rt.step(t)
	}
	if max > 0 {
		rt.fuelSeen = e.steps.Add(rt.stats.Steps - before)
	}
	if t.status == statusRunnable {
		rt.stats.Preemptions++
		if rt.queued.Load() == 0 && !rt.opts.RandomSched {
			// Run-queue bypass: the shard's sole runnable thread stays
			// in hand for the next slice instead of round-tripping
			// through the locked queue. It remains the shard's thread
			// for delivery purposes (deliverLocal checks owner and
			// status, not queue membership), and the shard never idles
			// while holding it, so quiescence still implies no kept
			// threads anywhere. Disabled under RandomSched: the bypass
			// skips popLocal's rng draw, which would shift the seeded
			// random-schedule stream that chaos tests replay.
			rt.kept = t
		} else {
			rt.enqueue(t)
		}
	}
}

// step executes one transition of thread t. This function is the
// runtime analogue of the transition rules of Figures 4 and 5: each
// case corresponds to one rule (or the administrative frame-popping
// half of one).
func (rt *RT) step(t *Thread) {
	// Rule (Receive): an exception in flight is raised when the thread
	// is at a step boundary in an unmasked context AND the current
	// node is redex-like (a primitive, return, or throw). Structural
	// descent steps (>>=, >>, catch, block, unblock, delay) are NOT
	// delivery points: in the paper's semantics those constructors are
	// part of the static evaluation context, so a handler or mask that
	// is syntactically in place protects the redex from the moment the
	// thread exists — before the implementation has "executed" the
	// catch. Restricting delivery to redex boundaries makes the
	// runtime's delivery points a subset of the machine's and closes
	// the install-race the conformance suite would otherwise find.
	// It also subsumes rule (Receive)'s side condition M ≠ block N:
	// a maskNode is never a delivery point.
	if len(t.pending) > 0 {
		// Non-lethal signal delivery: strictly weaker than rule (Receive).
		// A signal fires only when no exception is pending (exceptions
		// always win: deliverSignal stands aside for them, so trying it
		// first only lets the IpSignalFirst seam break that rule), only
		// under Unmasked, and only at primitive/return redexes — not at
		// throwNode (a handler must never run on an unwinding stack) and
		// never while parked (no Interrupt analogue).
		if t.mask == Unmasked {
			switch t.cur.(type) {
			case primNode, retNode:
				rt.deliverSignal(t)
			}
		}

		if t.mask == Unmasked || rt.simSeam(IpDeliverMasked, t) {
			switch t.cur.(type) {
			case primNode, retNode, throwNode:
				if p, ok := rt.takePending(t); ok {
					rt.noteDelivered(t, p, false)
					t.cur = throwNode{p.e}
				}
			}
		}
	}

	// Resource exhaustion (§2): a push that exceeded the stack bound
	// converts the current redex into a StackOverflow raise; the
	// subsequent unwinding only pops frames, so progress is assured.
	if t.overflowed {
		t.overflowed = false
		t.cur = throwNode{exc.StackOverflow{}}
	}

	rt.stats.Steps++

	switch n := t.cur.(type) {
	case retNode:
		if len(t.stack) == 0 {
			rt.finish(t, n.v, nil) // rule (Return GC)
			return
		}
		switch f := t.pop().(type) {
		case *bindFrame:
			t.cur = f.n
			if f.k != nil {
				t.cur = f.k.Apply(n.v) // rule (Bind)
			}
			rt.putBindFrame(f)
		case *maskFrame:
			t.mask = f.restore // rules (Block Return)/(Unblock Return)
		case *catchFrame:
			// rule (Handle): catch (return M) H -> return M
			rt.putCatchFrame(f)
		}

	case throwNode:
		if len(t.stack) == 0 {
			rt.finish(t, nil, n.e) // rule (Throw GC)
			return
		}
		switch f := t.pop().(type) {
		case *bindFrame:
			// rule (Propagate): throw e >>= M -> throw e
			rt.putBindFrame(f)
		case *maskFrame:
			t.mask = f.restore // rules (Block Throw)/(Unblock Throw)
		case *catchFrame:
			// rule (Catch): restore the mask state recorded when the
			// frame was pushed, then enter the handler (§8.1).
			if f.skipAlerts && exc.IsAlertException(n.e) {
				// §9 two-datatype design: alerts pass through.
				rt.putCatchFrame(f)
				return
			}
			t.mask = f.saved
			h := f.h
			rt.putCatchFrame(f)
			t.cur = h.Handle(n.e)
			rt.stats.Handled++
			rt.obsCatch(t, n.e)
		}

	case bindNode:
		t.push(rt.newBindFrame(n.k, nil))
		t.cur = n.m

	case thenNode:
		t.push(rt.newBindFrame(nil, n.n))
		t.cur = n.m

	case catchNode:
		t.push(rt.newCatchFrame(n.h, t.mask, n.skipAlerts))
		t.cur = n.m
		rt.stats.CatchesInstalled++

	case maskNode:
		rt.stats.MaskEnters++
		t.enterMask(n.to, n.m)

	case delayNode:
		t.cur = n.f()

	case primNode:
		next, parked := n.step(rt, t)
		if !parked {
			t.cur = next
		}

	case interface{ force() Node }: // DelayOf; last, as the one non-concrete case
		t.cur = n.force()

	default:
		panic(fmt.Sprintf("sched: unknown node %T", t.cur))
	}
}

// finish completes a thread (rules Return GC / Throw GC): its result or
// uncaught exception is recorded, its still-queued entries are dropped
// (§5: throwTo to a finished thread succeeds), and the thread is
// removed from the table so later throwTos see it as dead.
func (rt *RT) finish(t *Thread, v any, e exc.Exception) {
	t.status = statusDone
	t.doneVal = v
	t.doneExc = e
	t.cur = nil
	rt.putStack(t.stack)
	t.stack = nil
	rt.stats.ThreadsFinished++
	if p := t.settle; p != nil {
		// Producer thread (AsyncNode/SpeculateNode): the promise is the
		// thread's runtime-installed top-level handler. Its outcome —
		// value or unwound exception — settles the promise (losing the
		// resolve-once race discards it), and the exception counts as
		// handled, not uncaught: PromiseCancelled tearing down a loser
		// is the expected end of its life, exactly as when Async's old
		// catch-wrapper swallowed it.
		t.settle = nil
		rt.SettlePromise(p, v, e, false)
		e = nil
	}
	if e != nil {
		rt.stats.Uncaught++
		if _, killed := e.(exc.ThreadKilled); killed {
			rt.stats.Killed++
		}
	}
	for _, p := range t.pending {
		rt.drop(p)
	}
	t.pending = nil
	t.sigHandlers = nil
	rt.obsFinish(t, e)
	rt.eng.table.del(t.id)
	rt.eng.live.Add(-1)
	if t == rt.eng.mainThread {
		rt.eng.finish(Result{Value: v, Exc: e}, nil)
	}
}

// park makes t stuck: the park record and the park event. A queued
// park also joins its wait queue, so the caller holds pk.mu. Every
// primitive that waits parks through here.
func (rt *RT) park(t *Thread, pk parkInfo) {
	t.status = statusParked
	t.park = pk
	if pk.q != nil {
		pk.q.push(t)
	}
	rt.obsPark(t, pk.kind, pk.id)
}

// outcome is the node a woken thread resumes with: return v, or raise
// e when e is non-nil.
func outcome(v any, e exc.Exception) Node {
	if e != nil {
		return throwNode{e}
	}
	return Return(v)
}

// unpark makes a parked thread runnable again, resuming with return v
// or raising e. Used by committed handoffs, promise settlements,
// timers and §9 thrower release.
func (rt *RT) unpark(t *Thread, v any, e exc.Exception) {
	if rt.opts.Sim != nil && rt.simSeam(IpDropUnpark, t) {
		// Mutation seam (IpDropUnpark): lose the wakeup; the thread
		// stays parked forever. Seeded bug for the mutation suite.
		return
	}
	rt.smu.Lock()
	rt.unparkQueuedLocked(t, outcome(v, e))
}

// deliverUnpark resumes a thread whose wakeup this shard just committed
// by popping it from a wait queue: directly when this shard owns it,
// else as a must-deliver msgUnpark to the owner.
func (rt *RT) deliverUnpark(t *Thread, v any, e exc.Exception) {
	if own := t.owner.Load(); own != rt {
		rt.eng.send(own, shardMsg{kind: msgUnpark, t: t, v: v, e: e})
		return
	}
	rt.unpark(t, v, e)
}

// detachParked removes a parked thread from whatever wait queue holds
// it and cancels its deadline, returning false when a committed wakeup
// got there first (the thread was already popped from its wait queue
// and its wakeup message is in flight).
func (rt *RT) detachParked(t *Thread) bool {
	pk := t.park
	if pk.cancel != nil {
		// Removal and cancellation are one critical section, so no
		// settlement can pop t and win between them: a withdrawn §9
		// receipt is never also claimed.
		if !rt.settle(pk.cancel, nil, nil, true, t) {
			return false
		}
	} else if pk.q != nil {
		pk.mu.Lock()
		ok := pk.q.remove(t)
		pk.mu.Unlock()
		if !ok {
			return false
		}
	}
	if pk.timer != nil {
		cancelTimer(pk.timer)
	}
	return true
}

// interruptStuck implements rule (Interrupt): a stuck thread is woken
// with the exception raised at its evaluation site, in any mask
// context. The caller has checked interruptibility. It returns false
// when a committed wakeup won the race — then p joins
// the pending queue instead and is raised at the thread's next
// delivery point, which is §5.3's semantics once the MVar has been
// acquired.
func (rt *RT) interruptStuck(t *Thread, p pendingExc) bool {
	if !rt.detachParked(t) {
		t.pending = append(t.pending, p)
		return false
	}
	rt.obsUnpark(t)
	rt.noteDelivered(t, p, true)
	t.status = statusRunnable
	t.park = parkInfo{}
	t.cur = throwNode{p.e}
	rt.enqueue(t)
	rt.stats.Interrupts++
	return true
}

// claim decides a pending entry at the point it would be raised: an
// asynchronous entry always lands, and a §9 synchronous one lands only
// if this call resolves its receipt, which releases the thrower. False
// means the thrower was interrupted first and withdrew the exception.
func (rt *RT) claim(p pendingExc) bool {
	return p.receipt == nil || rt.SettlePromise(p.receipt, UnitValue, nil, false)
}

// takePending dequeues the exception to raise in t at a delivery
// point, passing over signals and dropping withdrawn entries; false
// when no exception is left.
func (rt *RT) takePending(t *Thread) (pendingExc, bool) {
	for {
		i := rt.simPendingIndex(t)
		if i < 0 {
			return pendingExc{}, false
		}
		if p := t.dequeuePendingAt(i); rt.claim(p) {
			return p, true
		}
	}
}

// deliverLocal lands an asynchronous exception or a signal on a thread
// owned by this shard: rule (Interrupt) for an exception to a stuck
// interruptible target, otherwise the pending queue (rule ThrowTo's
// in-flight state) — a signal never interrupts a park. It returns
// false when ownership moved mid-call (the thread was stolen) and the
// caller must re-route.
func (rt *RT) deliverLocal(t *Thread, p pendingExc) bool {
	rt.smu.Lock()
	if t.owner.Load() != rt {
		rt.smu.Unlock()
		return false
	}
	if t.status == statusRunnable {
		// Append under the shard lock: the target sits in this shard's
		// run queue and cannot be stolen mid-append.
		t.pending = append(t.pending, p)
		rt.smu.Unlock()
		return true
	}
	rt.smu.Unlock()
	// Parked or done: stable, since only the owner (this shard)
	// transitions those states and parked threads are never stolen.
	if t.status == statusDone {
		rt.drop(p)
		return true
	}
	if p.lethal() && t.status == statusParked && t.mask.Interruptible() && !rt.simSeam(IpNoInterrupt, t) {
		// Claim before detaching: a withdrawn exception must not wake
		// the target. If a committed wakeup then wins the detach, the
		// thrower has returned and the entry, its receipt shed, waits
		// for the target's next delivery point (DESIGN.md §5 item 4).
		if rt.claim(p) {
			p.receipt = nil
			rt.interruptStuck(t, p)
		}
		return true
	}
	t.pending = append(t.pending, p)
	return true
}

// noteDelivered records a pending exception being raised in t.
// interrupted distinguishes delivery at an interruptible operation
// about to wait (§5.3, the in-step analogue of rule Interrupt) from
// rule (Receive) at an unmasked redex boundary.
func (rt *RT) noteDelivered(t *Thread, p pendingExc, interrupted bool) {
	if rt.opts.Sim != nil {
		rt.opts.Sim.Observe(SimEvent{Kind: SimDeliver, Shard: uint8(rt.shardID), A: SimHash(p.e.ExceptionName()), B: uint64(t.id)})
	}
	rt.stats.Delivered++
	var flags uint8
	if interrupted {
		flags = obs.FlagInterrupt
	}
	rt.obsDeliver(t, p, flags)
}

// throwTo implements §5/§8.2 and the §9 synchronous variant. Called
// from the thrower's step. The asynchronous design posts the exception
// and continues. The §9 synchronous design is the same delivery plus a
// receipt: the thrower parks on a fresh promise and the exception
// travels in a msgThrowTo — including to local targets — so the
// thrower is parked before anything can settle the receipt.
func (rt *RT) throwTo(from *Thread, tid ThreadID, e exc.Exception) (Node, bool) {
	if !rt.opts.SyncThrowTo {
		// Rule (ThrowTo): spawn the exception in flight; the caller
		// continues immediately. A self-throw waits in the pending
		// queue for rule (Receive) at the next unmasked boundary.
		rt.post(from.id, uint8(from.mask), tid, e)
		return unitRet, false
	}
	target, p := rt.admit(from.id, uint8(from.mask), tid, e, obs.FlagSync)
	if target == nil {
		return unitRet, false
	}
	if target == from {
		// §9 notes a self-throw needs a special case: deliver
		// immediately, regardless of mask state.
		rt.stats.Delivered++
		rt.obsDeliver(from, p, obs.FlagSelf|obs.FlagSync)
		return throwNode{e}, false
	}
	// Await the receipt; the wait is itself interruptible (§9). The
	// target's delivery point resolves the receipt, and an interrupt
	// that detaches the thrower cancels it: whichever settles it first
	// decides delivered or withdrawn.
	if n, interrupted := from.raisePendingForPark(); interrupted {
		return n, false
	}
	r := rt.newPromise("")
	r.mu.Lock()
	rt.park(from, parkInfo{kind: parkThrowTo, q: &r.waiters, mu: &r.mu, id: r.id, cancel: r})
	r.mu.Unlock()
	rt.eng.send(target.owner.Load(), shardMsg{kind: msgThrowTo, t: target, e: e, v: r, span: p.span, enqNS: p.enqNS})
	return nil, true
}

// post places e, an exception or a *signalEntry, in flight against tid
// on behalf of from (0: the environment or the runtime itself), whose
// mask state is mask, and routes it. Every entry into the interrupt
// queue comes through here or through admit. Under Options.SyncThrowTo
// only a throwTo call awaits a receipt: a canceller must not wait on
// the producer it is tearing down.
func (rt *RT) post(from ThreadID, mask uint8, tid ThreadID, e exc.Exception) {
	if target, p := rt.admit(from, mask, tid, e, 0); target != nil {
		rt.routeExc(target, p)
	}
}

// admit is the front half of post: the one place an entry's target is
// looked up and the entry counted and traced. A finished target gets a
// FlagTargetDead enqueue and the entry is dropped — "if the thread t
// has already died or completed, then throwTo trivially succeeds"
// (§5) — and admit returns a nil target.
func (rt *RT) admit(from ThreadID, mask uint8, tid ThreadID, e exc.Exception, flags uint8) (*Thread, pendingExc) {
	p := pendingExc{e: e}
	if p.lethal() {
		rt.stats.ThrowTos++
	} else {
		rt.stats.SignalsSent++
	}
	if tid == from {
		flags |= obs.FlagSelf
	}
	target := rt.eng.table.get(tid)
	if target == nil {
		flags |= obs.FlagTargetDead
	} else if p.lethal() && target.owner.Load() != rt {
		rt.stats.CrossShardThrowTo++
	}
	p.span, p.enqNS = rt.obsEnqueue(tid, from, e, mask, flags)
	if target == nil {
		rt.drop(p)
	}
	return target, p
}

// drop is the one rule for an entry that reaches no live thread: its
// target had finished at admit or at delivery, or finished with the
// entry still queued. An exception is claimed (a §9 thrower is
// released: the throwTo succeeded) and counts ThrowToDead; a signal
// counts SignalsDropped, since a handler never runs on an unwound
// stack.
func (rt *RT) drop(p pendingExc) {
	if p.lethal() {
		rt.stats.ThrowToDead++
		rt.claim(p)
	} else {
		rt.stats.SignalsDropped++
	}
}

// routeExc lands p, an exception or a signal, on target: directly
// when this shard owns it, otherwise — or when a steal moved it
// mid-call — as a msgThrowTo to its owner.
func (rt *RT) routeExc(target *Thread, p pendingExc) {
	if target.owner.Load() == rt && rt.deliverLocal(target, p) {
		return
	}
	rt.eng.send(target.owner.Load(), shardMsg{kind: msgThrowTo, t: target, e: p.e, span: p.span, enqNS: p.enqNS})
}
