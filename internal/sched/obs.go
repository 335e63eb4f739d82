package sched

import (
	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// This file wires the obs tracing layer (internal/obs) into the
// scheduler. Every hook is nil-guarded on rt.olog, so with no
// Observer configured the cost is one pointer compare and the
// AllocsPerRun ceilings are untouched; with an Observer,
// recording is an atomic sequence stamp plus an append into the
// shard-owned staging buffer (no locks on the hot path — see
// obs.ShardLog).
//
// The span discipline: every site that places an exception or a signal
// in flight (rt.admit, the deadlock detector) allocates a span id and
// records a KindThrowTo event with the sender's mask state;
// the span and enqueue timestamp travel
// inside the pendingExc (and across shards inside the msgThrowTo
// message), so the eventual KindDeliver event can report the pending
// latency and the same span. Delivery stores the span on the target
// (Thread.excSpan), where the catch-frame unwind or the uncaught
// finish picks it up — closing the thrower → target → handler chain
// the exporters render as flow arrows.

// obsAttach connects this shard to the recorder; called once per
// shard from buildEngine.
func (rt *RT) obsAttach(shard int) {
	if rt.opts.Observer != nil {
		rt.olog = rt.opts.Observer.ShardLog(shard)
	}
}

// obsEnqueue allocates a span and records an exception or a signal
// being placed in flight against target tid (rule ThrowTo, from
// rt.admit; also the deadlock detector). from is 0 for throws
// originating outside the program; mask is the sender's mask state
// or obs.MaskUnknown. A signal is labelled by its name and carries
// FlagSignal; its span is closed by a KindSignalDeliver or never (a
// dropped signal). It returns the span id and enqueue timestamp to
// store in the pendingExc — both zero when no observer is attached.
func (rt *RT) obsEnqueue(tid ThreadID, from ThreadID, e exc.Exception, mask uint8, flags uint8) (span uint64, enqNS int64) {
	if rt.olog == nil {
		return 0, 0
	}
	span = rt.opts.Observer.NextSpan()
	enqNS = rt.nowNS()
	ev := obs.Event{
		TS: enqNS, Span: span, Thread: int64(tid), Peer: int64(from),
		Exc: e, Kind: obs.KindThrowTo, Mask: mask, Flags: flags,
	}
	if s, ok := e.(*signalEntry); ok {
		// Never intern the entry as Exc: each is a distinct pointer,
		// so the shard's exception table would grow by one per signal.
		ev.Exc, ev.Label, ev.Flags = nil, s.sig.Name, flags|obs.FlagSignal
	}
	rt.olog.Record(ev)
	return span, enqNS
}

// obsDeliver records a pending exception being raised in t (rules
// Receive and Interrupt) and parks the span on the thread for the
// eventual catch/finish event. Arg carries the pending latency.
func (rt *RT) obsDeliver(t *Thread, p pendingExc, flags uint8) {
	t.excSpan = p.span
	if rt.olog == nil || p.span == 0 {
		return
	}
	now := rt.nowNS()
	var lat uint64
	if p.enqNS > 0 && now > p.enqNS {
		lat = uint64(now - p.enqNS)
	}
	rt.olog.Record(obs.Event{
		TS: now, Span: p.span, Thread: int64(t.id), Arg: lat,
		Exc: p.e, Kind: obs.KindDeliver, Mask: uint8(t.mask), Flags: flags,
	})
}

// obsSpawn records a thread creation (revised rule Fork).
func (rt *RT) obsSpawn(t *Thread, parent ThreadID) {
	if rt.olog == nil {
		return
	}
	if t.name == "" {
		rt.olog.Stage(obs.KindSpawn, rt.nowNS(), 0, int64(t.id), int64(parent), 0, uint8(t.mask), 0)
		return
	}
	rt.olog.Record(obs.Event{
		TS: rt.nowNS(), Thread: int64(t.id), Peer: int64(parent),
		Label: t.name, Kind: obs.KindSpawn, Mask: uint8(t.mask),
	})
}

// obsFinish records a thread completing (rules Return GC / Throw GC).
func (rt *RT) obsFinish(t *Thread, e exc.Exception) {
	if rt.olog == nil {
		return
	}
	if e == nil {
		rt.olog.Stage(obs.KindFinish, rt.nowNS(), 0, int64(t.id), 0, 0, 0, 0)
		return
	}
	rt.olog.Record(obs.Event{
		TS: rt.nowNS(), Thread: int64(t.id), Kind: obs.KindFinish,
		Exc: e, Flags: obs.FlagUncaught, Span: t.excSpan,
	})
}

// obsCatch records a handler being entered (rule Catch); the span is
// non-zero when the caught exception arrived asynchronously. The
// thread's span is consumed: later frames handle later exceptions.
func (rt *RT) obsCatch(t *Thread, e exc.Exception) {
	span := t.excSpan
	t.excSpan = 0
	t.lastSpan = span
	if rt.olog == nil {
		return
	}
	rt.olog.Record(obs.Event{
		TS: rt.nowNS(), Span: span, Thread: int64(t.id),
		Exc: e, Kind: obs.KindCatch,
	})
}

// obsReasons maps park kinds to obs reasons.
var obsReasons = [...]obs.Reason{
	parkNone:     obs.ReasonNone,
	parkTakeMVar: obs.ReasonTakeMVar,
	parkPutMVar:  obs.ReasonPutMVar,
	parkSleep:    obs.ReasonSleep,
	parkGetChar:  obs.ReasonGetChar,
	parkThrowTo:  obs.ReasonThrowTo,
	parkPromise:  obs.ReasonPromise,
}

// obsPark records a thread becoming stuck; arg is the MVar or promise
// id the thread waits on, 0 otherwise.
func (rt *RT) obsPark(t *Thread, kind parkKind, arg uint64) {
	if rt.olog == nil {
		return
	}
	rt.olog.Stage(obs.KindPark, rt.nowNS(), 0, int64(t.id), 0, arg, 0, uint8(obsReasons[kind]))
}

// obsUnpark records a stuck thread becoming runnable; called before
// t.park is reset so the reason is still known.
func (rt *RT) obsUnpark(t *Thread) {
	if rt.olog == nil {
		return
	}
	rt.olog.Stage(obs.KindUnpark, rt.nowNS(), 0, int64(t.id), 0, t.park.id, 0, uint8(obsReasons[t.park.kind]))
}

// obsSteal records a thread migrating between shards.
func (rt *RT) obsSteal(t *Thread, from, to int) {
	if rt.olog == nil {
		return
	}
	rt.olog.Stage(obs.KindSteal, rt.nowNS(), 0, int64(t.id), 0, obs.PackShards(from, to), 0, 0)
}

// obsNewSpan allocates a fresh span id, or 0 with no observer. Used
// by promise creation: the span is the "operation invoke" end of the
// invoke → resolve → await chain and travels inside the Promise.
func (rt *RT) obsNewSpan() uint64 {
	if rt.olog == nil {
		return 0
	}
	return rt.opts.Observer.NextSpan()
}

// obsPromiseResolve records a promise settling (resolve, rejection or
// cancellation). At most one per span — resolve-once made observable.
func (rt *RT) obsPromiseResolve(p *Promise, e exc.Exception, cancelled bool) {
	if rt.olog == nil || p.span == 0 {
		return
	}
	var flags uint8
	if cancelled {
		flags = obs.FlagCancel
		e = nil // the cancellation is the event; PromiseCancelled reaches awaiters
	}
	rt.olog.Record(obs.Event{
		TS: rt.nowNS(), Span: p.span, Arg: p.id, Exc: e,
		Label: p.name, Kind: obs.KindPromiseResolve, Flags: flags,
	})
}

// obsAwait records a thread observing a promise's outcome, closing
// the invoke → resolve → await chain. mask is the awaiter's mask
// state; cancelled marks an outcome of cancellation.
func (rt *RT) obsAwait(tid ThreadID, mask uint8, span, promiseID uint64, cancelled bool) {
	if rt.olog == nil || span == 0 {
		return
	}
	var flags uint8
	if cancelled {
		flags = obs.FlagCancel
	}
	rt.olog.Record(obs.Event{
		TS: rt.nowNS(), Span: span, Thread: int64(tid), Arg: promiseID,
		Kind: obs.KindAwait, Mask: mask, Flags: flags,
	})
}

// obsSignalDeliver records a signal handler being spliced into its
// target — the target's mask state is recorded so the invariant
// checker can verify no handler ever fired inside a masked region.
func (rt *RT) obsSignalDeliver(t *Thread, p pendingExc) {
	if rt.olog == nil || p.span == 0 {
		return
	}
	s := p.e.(*signalEntry)
	now := rt.nowNS()
	var lat uint64
	if p.enqNS > 0 && now > p.enqNS {
		lat = uint64(now - p.enqNS)
	}
	rt.olog.Record(obs.Event{
		TS: now, Span: p.span, Thread: int64(t.id), Peer: int64(s.from),
		Arg: lat, Label: s.sig.Name, Kind: obs.KindSignalDeliver,
		Mask: uint8(t.mask),
	})
}
