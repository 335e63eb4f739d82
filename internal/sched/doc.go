// Package sched implements the runtime system substrate for the
// asyncexc reproduction of "Asynchronous Exceptions in Haskell"
// (Marlow, Peyton Jones, Moran, Reppy; PLDI 2001).
//
// Go goroutines cannot be killed from outside, cannot be masked, and
// expose no per-thread continuation that another thread could truncate.
// This package therefore implements the paper's §8 runtime design
// directly: a user-level green-thread scheduler in which
//
//   - an IO computation is a tree of Nodes (a trampolined free monad).
//     Building one allocates at most the node itself, and nothing for
//     a constant such as return (): a >>= or catch holds its
//     continuation as a Kont or Handler, which a func type satisfies
//     without a wrapper closure,
//   - a Thread is a heap object holding the current Node, a stack of
//     continuation frames (bind frames, catch frames that record the
//     mask state, and block/unblock mask frames with the §8.1
//     adjacent-frame cancellation rule),
//   - the per-thread data block carries the asynchronous-exception mask
//     state and a queue of pending asynchronous exceptions (§8.1),
//   - throwTo places the exception on the target's pending queue (§8.2),
//   - the scheduler interprets one Node per step and checks the pending
//     queue at every step boundary of an unmasked thread (rule Receive,
//     Figure 5) and whenever a primitive is about to park (rule
//     Interrupt and the interruptible-operations rule of §5.3).
//
// A step is the unit of atomicity: a Lifted Go function runs within a
// single step and corresponds to a single pure reduction of the
// semantics, so exceptions are delivered exactly at the points the
// paper's transition system allows.
//
// There is one scheduler loop, an M:N work-stealing engine (shard.go):
// one RT per shard, each stepped by a worker goroutine, with cross-shard
// throwTo and wakeups travelling as mailbox messages applied only at
// scheduling boundaries, so the paper's delivery points are the same at
// every shard count (the design argument and the committed-handoff
// protocol are in docs/PARALLEL.md). Options.Shards sets the count. The
// default, one shard, runs on the goroutine that calls RunMain and is
// deterministic: round-robin with a fixed time slice measured in steps
// (a seeded random scheduler is available for interleaving stress
// tests), and time that is virtual by default — it advances only when
// every thread is blocked — which makes timeout tests instantaneous and
// reproducible; a real-time clock is available for programs doing
// actual I/O. An idle one-shard runtime blocks; it does not poll.
//
// There is one way to wait and one way to wake. A thread stuck on an
// MVar (take or put), on console input or on a promise sits in a waitQ
// (mvar.go) guarded by the lock of the object it waits on; popping it
// commits the wakeup — the §5.3 interruptibility window closes there —
// and the wakeup, a value or an exception, reaches the thread through
// deliverUnpark: a direct resume on its own shard, a msgUnpark to any
// other. External work (the I/O manager) is a promise settled by an
// External callback; LaunchAwait launches it and awaits the promise in
// one step, so an interrupt cancels the promise as it detaches the
// waiter.
//
// There is one way in from the outside world: External sends its
// callback to shard 0 as a mailbox message. Each mailbox is one
// unbounded list under its own lock, so per-sender FIFO is the list's
// order; the worker drains it by swapping the whole list out. The
// worker's hot loop checks its per-iteration obligations (stop, mail,
// timers) with single atomic
// loads and batches clock resync and stats publication, so an idle
// obligation costs one predictable load per scheduler iteration. A
// busy worker yields its P (runtime.Gosched) every yieldEvery, 250 µs,
// so Go's GC mark worker and I/O completions need not wait for Go's
// ~10 ms preemption, when there are as many shards as Ps: with fewer a
// P is free for them, and with more the yield only rotates workers.
// Stats/ShardStats expose the counters; Stats.MailboxDepth is the
// backlog high water, sampled on the consumer side each time a mailbox
// drain begins. Under Options.Sim a single-goroutine driver steps the
// same shards through the same turn function with every pick routed
// through the SimSource (sim.go, docs/SIMULATION.md).
//
// Setting Options.Observer attaches an event recorder (internal/obs):
// the scheduler then records spawns, parks and wakes, steals, and the
// full throwTo → deliver → catch span of every asynchronous exception,
// with mask states and pending latency. With no observer every hook is
// a nil compare; see docs/OBSERVABILITY.md.
package sched
