package sched

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// This file implements the execution engine — the only scheduler loop
// the package has: the runtime sharded across Options.Shards worker
// goroutines, each owning a run queue, a timer heap and a mailbox,
// with work stealing for load balance. The design follows the
// multicore GHC RTS (per-capability run queues + stealing) and
// Erlang's schedulers (cross-scheduler signals as messages), chosen so
// the paper's delivery semantics hold at any shard count:
//
//   - A thread is owned by exactly one shard at a time; only the owner
//     steps it or transitions its status. Ownership moves only when a
//     thief pops a runnable thread from a victim's run queue (under the
//     victim's shard lock), so a thread's interpreter steps still form
//     a single total order and rule (Receive) keeps firing only at
//     redex boundaries of that order.
//   - Anything another shard wants done to a thread — landing a
//     throwTo, waking a parked waiter — travels as a mailbox message to
//     the owner, processed between time slices. Delivery points are
//     therefore the same at every shard count.
//   - Every wait (MVar take and put, console getChar, promise await)
//     sits in one kind of wait queue, a waitQ, and commits under the
//     lock of the object that owns it: popping a waiter commits its
//     wakeup, which reaches the owner as one message, msgUnpark. An
//     interrupt that loses this race (rule Interrupt vs. an in-flight
//     committed wakeup) appends the exception to the thread's pending
//     queue instead, which is precisely §5.3's "right up until the
//     point when it acquires the MVar" — the acquisition has happened,
//     so the exception waits for the next delivery point.
//
// One shard (Shards <= 1, the default) is the same engine with nobody
// to steal from and nobody else to send to: the locks are taken
// uncontended, the mailbox carries only External callbacks and §9
// synchronous throwTos, the worker loop runs on RunMain's goroutine, and under the virtual clock
// the schedule is deterministic. The simulation driver (sim.go) steps the
// same shards through the same turn function from one goroutine.

// shardMsgKind enumerates cross-shard mailbox messages.
type shardMsgKind uint8

const (
	// msgThrowTo lands an asynchronous exception (with the receipt of
	// a §9 synchronous throwTo in v) or a non-lethal signal on a thread
	// owned by the receiving shard.
	msgThrowTo shardMsgKind = iota
	// msgUnpark resumes a thread whose wakeup another shard committed
	// by popping it from a wait queue (MVar or console handoff, promise
	// settlement) with a value or an exception; must-deliver.
	msgUnpark
	// msgAdopt enqueues a freshly spawned thread on the shard it was
	// pinned to (ForkOn): the thread was created already owned by the
	// receiver and has never been in any run queue.
	msgAdopt
	// msgExternal runs an External callback (carried in v, its
	// simulation label in seq) on shard 0, the only shard it is sent to.
	msgExternal
)

// shardMsg is one mailbox entry.
type shardMsg struct {
	kind shardMsgKind
	t    *Thread
	v    any
	e    exc.Exception
	seq  uint64 // label (msgExternal)
	// span and enqNS carry the obs span id and enqueue timestamp of a
	// msgThrowTo across shards (see pendingExc).
	span  uint64
	enqNS int64
}

// threadTable is the striped id → thread map shared by all shards.
type threadTable struct{ buckets [16]tableBucket }

type tableBucket struct {
	mu sync.Mutex
	m  map[ThreadID]*Thread
}

func (tb *threadTable) init() {
	for i := range tb.buckets {
		tb.buckets[i].m = make(map[ThreadID]*Thread)
	}
}

func (tb *threadTable) bucket(id ThreadID) *tableBucket {
	return &tb.buckets[uint64(id)%uint64(len(tb.buckets))]
}

func (tb *threadTable) put(t *Thread) {
	b := tb.bucket(t.id)
	b.mu.Lock()
	b.m[t.id] = t
	b.mu.Unlock()
}

func (tb *threadTable) del(id ThreadID) {
	b := tb.bucket(id)
	b.mu.Lock()
	delete(b.m, id)
	b.mu.Unlock()
}

func (tb *threadTable) get(id ThreadID) *Thread {
	b := tb.bucket(id)
	b.mu.Lock()
	t := b.m[id]
	b.mu.Unlock()
	return t
}

// parkedSnapshot lists parked threads. Only meaningful under global
// quiescence (deadlock detection), when no shard is mutating statuses.
func (tb *threadTable) parkedSnapshot() (out []*Thread) {
	for i := range tb.buckets {
		b := &tb.buckets[i]
		b.mu.Lock()
		for _, t := range b.m {
			if t.status == statusParked {
				out = append(out, t)
			}
		}
		b.mu.Unlock()
	}
	return out
}

func (tb *threadTable) clear() {
	for i := range tb.buckets {
		b := &tb.buckets[i]
		b.mu.Lock()
		clear(b.m)
		b.mu.Unlock()
	}
}

// engine is the state the shards of one runtime share.
type engine struct {
	opts   Options
	shards []*RT
	table  threadTable

	nextTID      atomic.Int64
	nextMVarID   atomic.Uint64
	nextTimerSeq atomic.Uint64

	runnable      atomic.Int64 // threads sitting in some run queue
	msgs          atomic.Int64 // mailbox messages (External callbacks included) in flight
	outstandingIO atomic.Int64
	live          atomic.Int64 // live (unfinished) threads
	now           atomic.Int64 // runtime clock, ns
	wakeRR        atomic.Uint32

	// steps is the step count charged against Options.MaxSteps; every
	// shard adds to it after every slice. It has 128 bytes to itself (a
	// cache line and the neighbour the prefetcher fetches with it): on
	// a line with stopped, which every worker loads every turn, the
	// one-step-slice hot loop at 4 and 8 shards lost about a quarter of
	// its rate to field offsets alone (EXPERIMENTS.md M1).
	_     [128]byte
	steps atomic.Uint64
	_     [120]byte

	// idleMu serializes quiesce actors (virtual-clock advance and
	// deadlock detection); the idle entry/exit bookkeeping itself is
	// the lock-free idlers counter.
	idleMu sync.Mutex
	// idlers counts workers inside idleShard's idle path exactly:
	// raised at entry, dropped on every exit. Wake paths skip their
	// channel nudge entirely while it is zero, and the shard whose
	// increment completes the count is the quiesce candidate.
	idlers atomic.Int32

	done chan struct{}
	// stopped mirrors done's closed state as an atomic flag, so the
	// worker hot loop polls one load per iteration instead of a
	// channel select. Set strictly before close(done).
	stopped    atomic.Bool
	finishOnce sync.Once
	result     Result
	runErr     error
	mainThread *Thread

	realEpoch time.Time
}

// finish stops the engine, once: with the main thread's result, or
// with err when the run failed.
func (e *engine) finish(res Result, err error) {
	e.finishOnce.Do(func() {
		e.result, e.runErr = res, err
		e.stopped.Store(true)
		close(e.done)
	})
}

// send enqueues m in to's mailbox and wakes it if it is idling. The
// in-flight counters are raised before the append so the quiescence
// check can never observe a moment where the message is neither
// counted nor delivered. Per-sender FIFO is the order of to.mail.
func (e *engine) send(to *RT, m shardMsg) {
	e.msgs.Add(1)
	to.mailN.Add(1)
	to.mailMu.Lock()
	to.mail = append(to.mail, m)
	to.mailMu.Unlock()
	if to.idling.Load() {
		to.wake()
	}
}

// wakeIdleSibling nudges an idling shard; used when a shard's queue
// grows beyond one thread so idle siblings come steal. A no-op unless
// some worker is actually parked.
func (e *engine) wakeIdleSibling(except int) {
	n := len(e.shards)
	if n == 1 || e.idlers.Load() == 0 {
		return
	}
	i := int(e.wakeRR.Add(1)) % n
	for j := 0; j < n; j++ {
		s := e.shards[(i+j)%n]
		if s.shardID != except && s.idling.Load() {
			s.wake()
			return
		}
	}
}

// wake nudges this shard's worker out of its idle wait (non-blocking;
// the channel has capacity 1 and a lost signal is healed by the idle
// poll timeout).
func (rt *RT) wake() {
	select {
	case rt.wakeCh <- struct{}{}:
	default:
	}
}

// buildEngine makes the freshly constructed rt shard 0 of a new engine
// with Options.Shards shards. Called from NewRT — before the RT can
// escape to any other goroutine — so rt.eng is immutable for the RT's
// whole lifetime and External may read it without synchronization.
func (rt *RT) buildEngine() {
	n := rt.opts.Shards
	e := &engine{opts: rt.opts, done: make(chan struct{})}
	e.table.init()
	e.shards = make([]*RT, n)
	e.shards[0] = rt
	for i := 1; i < n; i++ {
		s := &RT{
			opts: e.opts,
			rng:  rand.New(rand.NewSource(e.opts.Seed + int64(uint64(i)*0x9E3779B97F4A7C15))),
		}
		s.console = rt.console
		s.bindSimCaps()
		e.shards[i] = s
	}
	for i, s := range e.shards {
		s.eng = e
		s.shardID = i
		s.wakeCh = make(chan struct{}, 1)
		s.obsAttach(i)
	}
}

// yieldEvery is how long a busy worker keeps its P: it reaches a Go
// scheduling point only when it idles, so while busy workers hold every
// P, GC marking and I/O completions wait for Go's ~10 ms preemption.
const yieldEvery = 250 * time.Microsecond

// workerLoop is one shard's scheduler loop: take turns while there is
// work, idle when there is none, until the engine stops. Every 64th
// busy turn yields the P once yieldEvery has passed (not in turn: the
// simulation driver steps turn, without the clock), when the shards
// fill the Ps: with fewer, a P is free; with more, it goes to a worker.
func (rt *RT) workerLoop() {
	e := rt.eng
	yield, next := len(e.shards) == runtime.GOMAXPROCS(0), time.Duration(0)
	for !e.stopped.Load() {
		if rt.turn() {
			if yield && rt.iter&63 == 0 && time.Since(e.realEpoch) >= next {
				runtime.Gosched()
				next = time.Since(e.realEpoch) + yieldEvery
			}
			continue
		}
		rt.publishStats()
		if err := rt.idleShard(); err != nil {
			e.finish(Result{}, err)
		}
	}
	rt.publishStats()
}

// turn is one scheduler iteration on this shard: apply queued mailbox
// messages (External callbacks among them), then run one time slice of
// local — or stolen — work. It reports whether a thread ran. Up to the
// pick the steady-state turn is lock- and channel-free: the mailbox,
// the run queues and the real clock are all probed through atomic
// flags/counters, and the heavier machinery behind each one runs only
// when its flag says there is something to do. Workers and the
// simulation driver both step shards through here.
func (rt *RT) turn() bool {
	rt.iter++
	if rt.statsReq.Load() || rt.iter&63 == 0 {
		rt.statsReq.Store(false)
		rt.publishStats()
	}
	if rt.mailN.Load() > 0 {
		rt.processMailbox()
		if len(rt.simExt) > 0 {
			rt.applyExternalsSim()
		}
	}
	if rt.opts.Clock == RealClock && rt.iter&31 == 0 {
		rt.syncRealClockShard()
	}
	t := rt.kept
	rt.kept = nil
	if t == nil {
		t = rt.popLocal()
	}
	if t == nil {
		t = rt.steal()
	}
	if t == nil {
		return false
	}
	rt.runSlice(t)
	return true
}

// publishStats makes this shard's counters and staged obs events
// visible to other goroutines: the counters are snapshotted under the
// shard lock so Stats/ShardStats, which read only snapshots, can
// aggregate them race-free, and the event stage is committed to the
// recorder's ring. Called on demand (the statsReq flag), every 64th
// loop iteration, at idle/stop boundaries — not every slice — and by
// the getStats family of primitives, so that a thread reading the
// counters sees its own shard's current slice.
func (rt *RT) publishStats() {
	rt.smu.Lock()
	rt.statsSnap = rt.stats
	rt.smu.Unlock()
	if rt.olog != nil {
		rt.olog.Flush()
	}
}

// processMailbox applies queued cross-shard messages in send order. It
// swaps the list for its emptied spare under mailMu, applies the batch,
// and repeats while mailN says more was sent meanwhile, so that mail
// lands in the same drain. A swap that comes back empty ends the drain
// too: its sender has raised mailN but not yet appended, and the next
// turn sees the message.
func (rt *RT) processMailbox() {
	e := rt.eng
	// Sample the backlog high water on the consumer side, keeping the
	// producer path free of read-modify-write maximum tracking. The
	// sample runs before any swap, so a burst that is fully drained by
	// one call is still observed at its peak.
	if n := uint64(rt.mailN.Load()); n > rt.stats.MailboxDepth {
		rt.stats.MailboxDepth = n
	}
	for rt.mailN.Load() > 0 {
		rt.mailMu.Lock()
		batch := rt.mail
		rt.mail = rt.mailSpare
		rt.mailMu.Unlock()
		for i := range batch {
			rt.mailN.Add(-1)
			rt.applyMsg(batch[i])
			e.msgs.Add(-1)
		}
		clear(batch) // drop thread/value references
		rt.mailSpare = batch[:0]
		if len(batch) == 0 {
			return
		}
	}
}

// applyMsg handles one mailbox message on the owning shard.
func (rt *RT) applyMsg(m shardMsg) {
	e := rt.eng
	if m.kind == msgExternal {
		// External's contract: the callback runs inside the scheduler.
		// Under simulation the application order is the source's, so
		// the callback is held for applyExternalsSim.
		if rt.opts.Sim != nil {
			rt.simExt = append(rt.simExt, m)
		} else {
			m.v.(func(*RT))(rt)
		}
		return
	}
	if s := rt.opts.Sim; s != nil {
		var tid ThreadID
		if m.t != nil {
			tid = m.t.id
		}
		s.Observe(SimEvent{Kind: SimMsg, Shard: uint8(rt.shardID), A: uint32(m.kind), B: uint64(tid)})
	}
	switch m.kind {
	case msgThrowTo:
		r, _ := m.v.(*Promise)
		if !rt.deliverLocal(m.t, pendingExc{e: m.e, receipt: r, span: m.span, enqNS: m.enqNS}) {
			e.send(m.t.owner.Load(), m)
		}

	case msgUnpark:
		// A committed wakeup: the thread was popped from its wait queue
		// and stays parked until this message arrives — nothing else
		// may have resumed it. The ownership check, park-state check,
		// status flip and run-queue push run in ONE shard-lock critical
		// section (the two-message ping-pong hot path).
		t := m.t
		rt.smu.Lock()
		if t.owner.Load() != rt {
			rt.smu.Unlock()
			e.send(t.owner.Load(), m)
			return
		}
		if t.status == statusParked && t.park.q != nil {
			rt.unparkQueuedLocked(t, outcome(m.v, m.e))
		} else {
			rt.smu.Unlock()
		}

	case msgAdopt:
		// Owned by this shard from birth and never enqueued anywhere, so
		// no ownership re-check is needed: nothing can have stolen it.
		rt.enqueue(m.t)
	}
}

// unparkQueuedLocked finishes an owner-side unpark with rt.smu already
// held: it makes t runnable with continuation cur, pushes it on the run
// queue, and releases the lock. The counter bump and sibling wake run
// after the release. Mirrors unpark, fused into the caller's critical
// section.
func (rt *RT) unparkQueuedLocked(t *Thread, cur Node) {
	rt.obsUnpark(t)
	t.status = statusRunnable
	t.park = parkInfo{}
	t.cur = cur
	rt.runq.pushBack(t)
	n := rt.runq.Len()
	rt.qlen.Store(int32(n))
	rt.smu.Unlock()
	rt.eng.runnable.Add(1)
	if n > 1 {
		rt.eng.wakeIdleSibling(rt.shardID)
	}
}

// enqueue pushes t on this shard's run queue.
func (rt *RT) enqueue(t *Thread) {
	rt.smu.Lock()
	rt.runq.pushBack(t)
	n := rt.runq.Len()
	rt.qlen.Store(int32(n))
	rt.smu.Unlock()
	rt.eng.runnable.Add(1)
	if n > 1 {
		rt.eng.wakeIdleSibling(rt.shardID)
	}
}

// popLocal pops the next runnable thread from this shard's queue, or
// nil when it is empty: round-robin by default, a uniformly chosen
// queued thread with Options.RandomSched (see pickRun). The lock-free
// qlen probe keeps the lock off the path when the queue is empty.
func (rt *RT) popLocal() *Thread {
	if rt.qlen.Load() == 0 {
		return nil
	}
	rt.smu.Lock()
	for rt.runq.Len() > 0 {
		if rt.opts.RandomSched {
			rt.runq.swap(0, rt.pickRun(rt.runq.Len()))
		}
		t := rt.runq.popFront()
		rt.qlen.Store(int32(rt.runq.Len()))
		rt.eng.runnable.Add(-1)
		if t.status == statusRunnable {
			rt.smu.Unlock()
			return t
		}
	}
	rt.smu.Unlock()
	return nil
}

// pickRun chooses the run-queue index the random scheduler pops next:
// this shard's seeded draw, unless a simulation source forces the
// index (replay). Every pick taken is observed (recording); a source
// answering -1 leaves the draw — and so the seeded stream — exactly
// what an unrecorded run's would be.
func (rt *RT) pickRun(qlen int) int {
	src := rt.opts.Sim
	idx := -1
	if rt.simPick {
		idx = src.PickRun(rt.shardID, qlen)
	}
	if idx < 0 || idx >= qlen {
		idx = rt.rng.Intn(qlen)
	}
	if src != nil {
		src.Observe(SimEvent{Kind: SimPickRun, Shard: uint8(rt.shardID), A: uint32(qlen), B: uint64(idx)})
	}
	return idx
}

// steal takes one runnable thread from the tail of a sibling's queue,
// transferring ownership. The victim is drawn from the siblings with
// queued work by this shard's seeded rng, unless a simulation source
// forces it; a lone shard, or one whose siblings are all empty,
// returns without drawing. The owner pointer changes under the
// victim's shard lock, so any shard that verified ownership under its
// own lock can rely on it until that lock is released.
func (rt *RT) steal() *Thread {
	e := rt.eng
	src := rt.opts.Sim
	// mask is the candidate set as the simulation log records it (the
	// driver admits at most 32 shards).
	var mask uint32
	cands := rt.stealCands[:0]
	for i, s := range e.shards {
		if s != rt && s.qlen.Load() > 0 {
			mask |= 1 << uint(i)
			cands = append(cands, i)
		}
	}
	rt.stealCands = cands
	if len(cands) == 0 {
		return nil
	}
	pick := -1
	if rt.simPick {
		pick = src.PickSteal(rt.shardID, mask)
		if pick == -2 {
			return nil
		}
	}
	if pick < 0 || pick >= len(e.shards) || mask&(1<<uint(pick)) == 0 {
		pick = cands[rt.rng.Intn(len(cands))]
	}
	v := e.shards[pick]
	v.smu.Lock()
	t := v.runq.popBack()
	if t != nil && t.pinned {
		// ForkOn affinity: pinned threads stay on their placement
		// shard; put it back and give up on this victim.
		v.runq.pushBack(t)
		t = nil
	}
	var tid uint64
	if t != nil {
		v.qlen.Store(int32(v.runq.Len()))
		t.owner.Store(rt)
		t.rt = rt
		tid = uint64(t.id)
	}
	v.smu.Unlock()
	if src != nil {
		src.Observe(SimEvent{Kind: SimSteal, Shard: uint8(rt.shardID), A: mask, B: uint64(pick+1)<<48 | tid})
	}
	if t == nil {
		return nil
	}
	e.runnable.Add(-1)
	rt.stats.Steals++
	rt.obsSteal(t, v.shardID, rt.shardID)
	return t
}

// syncClock returns the engine clock, first advanced to wall time under
// RealClock, so that a timer armed or a Now read mid-slice does not use
// a reading that is many slices old. It fires no timers.
func (rt *RT) syncClock() int64 {
	e := rt.eng
	for rt.opts.Clock == RealClock {
		now, cur := int64(time.Since(e.realEpoch)), e.now.Load()
		if now <= cur || e.now.CompareAndSwap(cur, now) {
			return max(now, cur)
		}
	}
	return e.now.Load()
}

// syncRealClockShard advances the engine clock to wall time and fires
// this shard's due timers (RealClock mode), skipping the heap lock when
// it holds none (timerN); the worker loop calls it every 32nd turn.
func (rt *RT) syncRealClockShard() {
	cur := rt.syncClock()
	if rt.timerN.Load() == 0 {
		return
	}
	rt.smu.Lock()
	due := rt.popDueTimersLocked(nil, cur)
	rt.smu.Unlock()
	for _, tm := range due {
		rt.fireTimer(tm)
	}
}

// popDueTimersLocked pops this shard's timers with deadline <= now, in
// (deadline, arm order), appending them to due; caller holds the shard
// lock and fires them after releasing it.
func (rt *RT) popDueTimersLocked(due []*timer, now int64) []*timer {
	for rt.timers.Len() > 0 && rt.timers[0].at <= now {
		due = append(due, heap.Pop(&rt.timers).(*timer))
		rt.timerN.Add(-1)
	}
	return due
}

// hasWork reports whether this worker has anything actionable: a
// finished run, local runnable work (or a kept thread), pending
// mailbox messages, or a sibling with queued threads to steal. All
// probes are lock-free.
func (rt *RT) hasWork() bool {
	e := rt.eng
	if e.stopped.Load() || rt.kept != nil || rt.qlen.Load() > 0 || rt.mailN.Load() > 0 {
		return true
	}
	for _, s := range e.shards {
		if s != rt && s.qlen.Load() > 0 {
			return true
		}
	}
	return false
}

// idleShard parks the worker until woken. The shard that brings the
// idle count to n (all shards idle) with no messages or runnable work
// in flight is the "last man standing": it alone advances virtual time
// or runs deadlock detection (quiesceLocked).
//
// Before parking the worker spins briefly with Gosched: the reply to a
// cross-shard ping-pong, or the I/O completion a server just asked
// for, is usually instants away, and on a machine with fewer cores
// than goroutines the yield is what lets the peer produce it. The park
// itself is guarded by the idling flag (Dekker-paired with every
// producer-side wake).
func (rt *RT) idleShard() error {
	e := rt.eng
	real := e.opts.Clock == RealClock
	if real {
		// Keep the clock fresh and fire due timers promptly while idle
		// (the busy loop amortizes this to every 32nd iteration).
		rt.syncRealClockShard()
	}
	for spin := 0; spin < 4; spin++ {
		if rt.hasWork() {
			return nil
		}
		runtime.Gosched()
	}
	// The idlers counter mirrors "shards inside the idle path" exactly:
	// raised here, dropped on every exit. Only the shard whose increment
	// completes the count — the candidate last man standing — pays for
	// the quiesce lock; everyone else parks lock-free. In-flight work
	// cannot be missed: a producer raises msgs/runnable before waking
	// its target, so either this check sees the counter non-zero or the
	// target shard is woken, re-enters, and re-triggers the check.
	n := int32(len(e.shards))
	if e.idlers.Add(1) == n && e.msgs.Load() == 0 && e.runnable.Load() == 0 {
		e.idleMu.Lock()
		var acted bool
		var qerr error
		// Re-verify under the lock: a sibling may have left the idle
		// path, or new work may have been raised, since the probe.
		if e.idlers.Load() == n && e.msgs.Load() == 0 && e.runnable.Load() == 0 {
			acted, qerr = rt.quiesceLocked()
		}
		e.idleMu.Unlock()
		if qerr != nil || acted {
			e.idlers.Add(-1)
			return qerr
		}
	}
	rt.idling.Store(true)
	// Dekker pairing: producers raise mailN/qlen first and then
	// check idling; we set idling first and then re-check the
	// counters. Whatever the interleaving, either they see idling and
	// wake us or we see their work and refuse to park.
	if rt.hasWork() {
		rt.idling.Store(false)
		e.idlers.Add(-1)
		return nil
	}
	// A lone shard is the only consumer of everything that can wake it,
	// so the pairing above is complete and it blocks until woken (or
	// its next real-clock timer). With siblings a short poll re-runs
	// the quiescence check for the hand-offs between idling shards that
	// the pairing does not cover.
	wait := time.Duration(-1)
	if n > 1 {
		wait = 200 * time.Microsecond
		if real {
			wait = time.Millisecond
		}
	}
	if real && rt.timerN.Load() > 0 {
		rt.smu.Lock()
		if len(rt.timers) > 0 {
			if d := max(time.Duration(rt.timers[0].at-e.now.Load()), 0); wait < 0 || d < wait {
				wait = d
			}
		}
		rt.smu.Unlock()
	}
	var expired <-chan time.Time
	if wait >= 0 {
		if rt.idleTimer == nil {
			rt.idleTimer = time.NewTimer(wait)
		} else {
			rt.idleTimer.Reset(wait)
		}
		expired = rt.idleTimer.C
	}
	select {
	case <-rt.wakeCh:
	case <-e.done:
	case <-expired:
	}
	if wait >= 0 {
		rt.idleTimer.Stop()
	}
	rt.idling.Store(false)
	e.idlers.Add(-1)
	if real {
		// The clock stood still while the worker was parked: catch it
		// up and fire the timers that came due meanwhile.
		rt.syncRealClockShard()
	}
	return nil
}

// quiesceLocked decides what global quiescence means: every shard is
// idle and no message or runnable thread is in flight. Workers call it
// on the last idle shard with the idle lock held, the simulation
// driver when no shard is a candidate. It returns acted=true when it
// changed state (advanced time or injected BlockedIndefinitely) so the
// caller should re-enter its loop instead of waiting.
func (rt *RT) quiesceLocked() (bool, error) {
	e := rt.eng
	if at, ok := e.earliestTimer(); ok {
		if e.opts.Clock == RealClock {
			// Real timers are waited out by idleShard's timed sleep.
			return false, nil
		}
		if e.outstandingIO.Load() == 0 {
			// Jump time forward (the fastest clock rule (Sleep)
			// permits); with I/O outstanding the completion is waited
			// for rather than overtaken.
			e.now.Store(at)
			rt.stats.TimeAdvances++
			rt.simObserve(SimEvent{Kind: SimAdvance, B: uint64(at)})
			rt.fireAllTimers(at)
			return true, nil
		}
	}
	if e.outstandingIO.Load() > 0 || rt.console.waitingReaders() {
		// An external completion, or injected input for a parked
		// getChar reader, may still arrive: a wait, not a deadlock.
		return false, nil
	}
	return true, rt.parallelDeadlock()
}

// earliestTimer scans every shard's heap for the earliest deadline.
func (e *engine) earliestTimer() (int64, bool) {
	best := int64(0)
	ok := false
	for _, s := range e.shards {
		s.smu.Lock()
		if len(s.timers) > 0 && (!ok || s.timers[0].at < best) {
			best, ok = s.timers[0].at, true
		}
		s.smu.Unlock()
	}
	return best, ok
}

// fireAllTimers pops due timers from every shard's heap and adopts
// their threads onto the calling shard (safe under global quiescence;
// work stealing rebalances afterwards). They fire in (deadline, arm
// order) whichever heaps they sat in: arm sequence numbers are
// engine-wide. The merged list is sorted as a plain slice, since the
// heap's Swap would rewrite the indices of timers that have left it.
func (rt *RT) fireAllTimers(now int64) {
	var due []*timer
	for _, s := range rt.eng.shards {
		s.smu.Lock()
		due = s.popDueTimersLocked(due, now)
		s.smu.Unlock()
	}
	sort.Slice(due, func(i, j int) bool { return due[i].before(due[j]) })
	for _, tm := range due {
		tm.t.owner.Store(rt)
		tm.t.rt = rt
		rt.fireTimer(tm)
	}
}

// parallelDeadlock handles global quiescence with nothing left to wait
// for: every thread is stuck on an MVar (or closed input), no message
// or I/O is in flight, and no timer can fire. With detection enabled,
// the detecting shard adopts every stuck thread and wakes it with
// BlockedIndefinitely — they are stuck, hence interruptible, so rule
// (Interrupt) justifies delivery even under Block; the uninterruptible
// extension state is overridden, as in GHC, because no other delivery
// opportunity can ever arise.
func (rt *RT) parallelDeadlock() error {
	e := rt.eng
	if !e.opts.DetectDeadlock {
		return ErrDeadlock
	}
	stuck := e.table.parkedSnapshot()
	if len(stuck) == 0 {
		return ErrDeadlock
	}
	// Deterministic order for reproducibility.
	sort.Slice(stuck, func(i, j int) bool { return stuck[i].id < stuck[j].id })
	rt.stats.Deadlocks++
	for _, t := range stuck {
		t.owner.Store(rt)
		t.rt = rt
		span, enqNS := rt.obsEnqueue(t.id, 0, exc.BlockedIndefinitely{}, obs.MaskUnknown, obs.FlagDeadlock)
		rt.interruptStuck(t, pendingExc{e: exc.BlockedIndefinitely{}, span: span, enqNS: enqNS})
	}
	return nil
}

// ShardStats returns one Stats snapshot per shard. Every shard's
// counters — including the calling shard's own — are read from the
// snapshot each worker publishes under its shard lock, so ShardStats
// is safe from any goroutine while shards run. Publication is
// copy-on-demand: each read raises the shard's statsReq flag so the
// worker refreshes its snapshot at the next loop iteration (busy
// workers also publish every 64th iteration and at idle/stop
// boundaries — an idle shard's snapshot is already current, since it
// published on the way in and runs no steps while parked). Mid-run
// reads may therefore lag slightly; counters remain monotonic.
// (Worker-context readers that need current-slice freshness publish
// their own shard first: see the getStats family of primitives.)
func (rt *RT) ShardStats() []Stats {
	out := make([]Stats, len(rt.eng.shards))
	for i, s := range rt.eng.shards {
		s.statsReq.Store(true)
		if s.idling.Load() {
			s.wake()
		}
		s.smu.Lock()
		out[i] = s.statsSnap
		s.smu.Unlock()
	}
	return out
}

// Shards returns the number of shards the runtime executes on.
func (rt *RT) Shards() int { return len(rt.eng.shards) }
