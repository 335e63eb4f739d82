package obs

import (
	"fmt"

	"asyncexc/internal/exc"
)

// Kind classifies an Event. Each kind corresponds to a transition rule
// of the paper (Figure 5) or to one of the engineering layers built on
// top of it; docs/OBSERVABILITY.md carries the full mapping.
type Kind uint8

const (
	// KindSpawn: a thread was created (revised rule Fork; Peer is the
	// parent, Mask the inherited mask state, Label the debug name).
	KindSpawn Kind = iota
	// KindFinish: a thread completed (rules Return GC / Throw GC).
	// Exc is the uncaught exception, if any; Span links an uncaught
	// asynchronous exception back to its throwTo.
	KindFinish
	// KindThrowTo: an exception or a signal was placed in flight
	// against Thread (rule ThrowTo; also environment interrupts,
	// promise cancellation and reaping, and the deadlock detector).
	// Peer is the sender (0 = environment or runtime), Span the new
	// span id, Mask the sender's mask state (MaskUnknown when sent
	// from outside any thread).
	KindThrowTo
	// KindDeliver: an in-flight exception was raised in its target
	// (rules Receive and Interrupt). Mask is the target's mask state
	// at delivery, Arg the pending latency in runtime nanoseconds
	// (delivery time minus enqueue time), FlagInterrupt distinguishes
	// rule Interrupt (target was stuck) from rule Receive.
	KindDeliver
	// KindCatch: a throw unwound into a catch frame and the handler
	// was entered (rule Catch). Span is non-zero when the exception
	// being handled arrived asynchronously.
	KindCatch
	// KindPark: a thread became stuck (rules Stuck TakeMVar / Stuck
	// PutMVar / Stuck GetChar / sleeping / awaiting I/O). Arg carries
	// the MVar id for MVar parks; Flags carries the park Reason.
	KindPark
	// KindUnpark: a stuck thread became runnable again (an MVar
	// handoff committed, a timer fired, input arrived, an await
	// completed, or a §9 synchronous thrower was released). Flags
	// carries the Reason it had been parked for.
	KindUnpark
	// KindSteal: the parallel engine moved a runnable thread between
	// shards; Arg packs the two shard ids (see StealShards).
	KindSteal
	// KindShed: admission control refused work (bulkhead full or
	// watermark crossed).
	KindShed
	// KindRetry: a resilience retry policy re-ran an attempt.
	KindRetry
	// KindBreaker: a circuit breaker changed state; Arg packs the
	// transition (see BreakerTransition), Label names the breaker.
	KindBreaker
	// KindDeadline: a resilience deadline budget ran out.
	KindDeadline
	// KindRestart: a supervisor restarted a child; Label is the
	// child's name, Span (when non-zero) the span of the delivered
	// exception that killed the child — the link that lets a trace
	// walk from a throwTo through the child's death to the restart
	// that answered it.
	KindRestart
	// KindLinkUp: a cluster link to a peer node completed its
	// handshake (internal/cluster); Label is the peer NodeID.
	KindLinkUp
	// KindLinkDown: a cluster link was closed or declared dead by the
	// heartbeat failure detector; Label is the peer NodeID.
	KindLinkDown
	// KindRemoteThrowTo: an exception crossed a node boundary
	// (cluster.ThrowTo). On the sending node, Span is the wire span
	// carried in the frame and Label the destination NodeID; on the
	// receiving node, Span is the freshly allocated local span of the
	// injected interrupt, Arg the wire span from the frame, and Label
	// the origin NodeID — Arg is what joins the two nodes' traces.
	KindRemoteThrowTo
	// KindActorSend: a message (or batch) was enqueued into an actor
	// mailbox (internal/actor). Label is the mailbox name, Arg the
	// message count, Span a fresh span that travels with the message
	// to the deliver and handle events.
	KindActorSend
	// KindActorDeliver: an actor dequeued a message (or drained a
	// batch) at its receive point. Label is the mailbox name, Arg the
	// message count, Span the first message's send span — the link
	// that joins send to deliver exactly as throwTo joins to deliver.
	KindActorDeliver
	// KindActorHandle: an actor's handler ran over a delivered
	// message (or batch). Label is the mailbox name, Arg the message
	// count, Span the same send span, closing the send → deliver →
	// handle chain.
	KindActorHandle
	// KindPromiseResolve: a first-class promise settled. Thread is
	// the settling thread (0 = external completion), Arg the promise
	// id, Span the promise's span (allocated at creation — the
	// operation invoke), Exc the rejection exception if any, and
	// FlagCancel marks a cancellation rather than a resolution. At
	// most one per span: resolve-once is an invariant.
	KindPromiseResolve
	// KindAwait: a thread observed a promise's outcome. Thread is
	// the awaiting thread, Arg the promise id, Span the promise's
	// span (joining invoke → resolve → await into one chain), Mask
	// the awaiter's mask state, and FlagCancel marks an await that
	// observed cancellation. In a complete trace an await follows
	// its span's promiseResolve.
	KindAwait
	// KindSignalDeliver: a non-lethal signal ran its handler in the
	// target's context (no unwinding). Thread is the target, Peer
	// the signaller (0 = environment), Span the signal's span
	// (opened by its KindThrowTo|FlagSignal enqueue), Arg the
	// pending latency in runtime nanoseconds, Label the signal name,
	// and Mask the target's mask state at delivery — which must be
	// unmasked (CheckInvariants enforces this; a masked delivery is
	// a violation).
	KindSignalDeliver

	numKinds
)

var kindNames = [numKinds]string{
	KindSpawn:          "spawn",
	KindFinish:         "finish",
	KindThrowTo:        "throwTo",
	KindDeliver:        "deliver",
	KindCatch:          "catch",
	KindPark:           "park",
	KindUnpark:         "unpark",
	KindSteal:          "steal",
	KindShed:           "shed",
	KindRetry:          "retry",
	KindBreaker:        "breaker",
	KindDeadline:       "deadline",
	KindRestart:        "restart",
	KindLinkUp:         "linkUp",
	KindLinkDown:       "linkDown",
	KindRemoteThrowTo:  "remoteThrowTo",
	KindActorSend:      "actorSend",
	KindActorDeliver:   "actorDeliver",
	KindActorHandle:    "actorHandle",
	KindPromiseResolve: "promiseResolve",
	KindAwait:          "await",
	KindSignalDeliver:  "signalDeliver",
}

// String renders the kind as its trace name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Reason says why a thread parked (KindPark) or what it was parked on
// when woken (KindUnpark). The values mirror the scheduler's park
// kinds without importing them.
type Reason uint8

const (
	ReasonNone Reason = iota
	ReasonTakeMVar
	ReasonPutMVar
	ReasonSleep
	ReasonGetChar
	ReasonAwait
	ReasonThrowTo // §9 synchronous thrower waiting for delivery
	ReasonPromise // awaiting a first-class promise
)

var reasonNames = [...]string{
	ReasonNone:     "none",
	ReasonTakeMVar: "takeMVar",
	ReasonPutMVar:  "putMVar",
	ReasonSleep:    "sleep",
	ReasonGetChar:  "getChar",
	ReasonAwait:    "await",
	ReasonThrowTo:  "throwTo",
	ReasonPromise:  "promise",
}

// String renders the reason.
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Flag bits on an Event.
const (
	// FlagInterrupt marks a KindDeliver that fired rule Interrupt
	// (target was stuck) rather than rule Receive.
	FlagInterrupt uint8 = 1 << iota
	// FlagSync marks a KindThrowTo from the §9 synchronous design.
	FlagSync
	// FlagTargetDead marks a KindThrowTo whose target had already
	// finished (trivial success, §5); no delivery will follow.
	FlagTargetDead
	// FlagSelf marks a self-directed throwTo.
	FlagSelf
	// FlagUncaught marks a KindFinish that died with an uncaught
	// exception (rule Throw GC).
	FlagUncaught
	// FlagDeadlock marks a KindThrowTo injected by the deadlock
	// detector (BlockedIndefinitely).
	FlagDeadlock
	// FlagSignal marks a KindThrowTo that enqueued a non-lethal
	// signal rather than an exception; its span is closed by a
	// KindSignalDeliver (handler ran) or never (signal dropped).
	FlagSignal
	// FlagCancel marks a KindPromiseResolve that cancelled the
	// promise (and the KindAwait events that observed it).
	FlagCancel
)

// MaskUnknown is the Mask value recorded when the mask state is not
// observable at the event site (e.g. an environment interrupt
// enqueued from outside the runtime, or a cross-shard throwTo whose
// target is owned by another shard).
const MaskUnknown uint8 = 0xFF

// maskNames mirrors sched.MaskState without importing it (obs must
// stay importable by sched).
var maskNames = [...]string{"unmasked", "masked", "maskedUninterruptible"}

// MaskName renders a recorded mask state.
func MaskName(m uint8) string {
	if int(m) < len(maskNames) {
		return maskNames[m]
	}
	if m == MaskUnknown {
		return "unknown"
	}
	return fmt.Sprintf("mask(%d)", m)
}

// Event is one fixed-shape trace record. All fields are plain values;
// recording one never allocates.
type Event struct {
	// Seq is the global sequence number, consistent with the
	// happens-before order of the runtime (assigned by a single
	// atomic counter at record time).
	Seq uint64
	// TS is the runtime clock at record time, in nanoseconds
	// (virtual or real, per Options.Clock).
	TS int64
	// Span links the throwTo → deliver → catch chain of one
	// asynchronous exception; 0 when not part of a span.
	Span uint64
	// Thread is the subject thread (target for throwTo/deliver).
	Thread int64
	// Peer is the other thread: parent for spawn, thrower for
	// throwTo; 0 when absent or external.
	Peer int64
	// Arg is kind-specific: MVar id (park), pending latency ns
	// (deliver), packed shard pair (steal), packed breaker
	// transition (breaker).
	Arg uint64
	// Exc is the exception involved, if any (throwTo, deliver,
	// catch, uncaught finish).
	Exc exc.Exception
	// Label is a kind-specific static name: thread name (spawn),
	// breaker name (breaker), child name (restart).
	Label string
	// Shard is the shard that recorded the event.
	Shard int32
	// Kind classifies the event.
	Kind Kind
	// Mask is a recorded mask state (see the Kind docs for whose),
	// or MaskUnknown.
	Mask uint8
	// Flags holds Flag* bits; for Park/Unpark it holds the Reason.
	Flags uint8
}

// ParkReason decodes the Reason of a Park/Unpark event.
func (e Event) ParkReason() Reason { return Reason(e.Flags) }

// PackShards encodes a steal's (from, to) shard pair into Arg.
func PackShards(from, to int) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// StealShards decodes a KindSteal Arg into (from, to).
func StealShards(arg uint64) (from, to int) {
	return int(uint32(arg >> 32)), int(uint32(arg))
}

// PackTransition encodes a breaker transition (from, to) into Arg.
// The state codes are the resilience package's BreakerMode values
// (0 closed, 1 open, 2 half-open).
func PackTransition(from, to int) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// BreakerTransition decodes a KindBreaker Arg into (from, to).
func BreakerTransition(arg uint64) (from, to int) {
	return int(uint32(arg >> 32)), int(uint32(arg))
}

// excName is Exc.ExceptionName with a nil guard.
func excName(e exc.Exception) string {
	if e == nil {
		return ""
	}
	return e.ExceptionName()
}

// String renders the event for logs and test failures.
func (e Event) String() string {
	s := fmt.Sprintf("#%d t=%dns shard=%d %s thread=%d", e.Seq, e.TS, e.Shard, e.Kind, e.Thread)
	if e.Peer != 0 {
		s += fmt.Sprintf(" peer=%d", e.Peer)
	}
	if e.Span != 0 {
		s += fmt.Sprintf(" span=%d", e.Span)
	}
	if e.Exc != nil {
		s += " exc=" + e.Exc.ExceptionName()
	}
	if e.Label != "" {
		s += " label=" + e.Label
	}
	return s
}
