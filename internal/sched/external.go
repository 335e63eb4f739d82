package sched

import (
	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// Interrupt delivers e to tid as an asynchronous exception originating
// outside the program — the paper's "asynchronous interrupts from the
// environment may also be converted into asynchronous exceptions by
// the programmer" (§5). It must run inside the scheduler: call it from
// an External callback (or a primitive's step function).
func (rt *RT) Interrupt(tid ThreadID, e exc.Exception) {
	rt.post(0, obs.MaskUnknown, tid, e)
}

// InterruptFromWire is Interrupt for exceptions that arrived over a
// cluster link (internal/cluster's inbound throwTo/kill): identical
// delivery semantics, but the injection is additionally recorded as a
// receiver-side KindRemoteThrowTo event whose Span is the freshly
// allocated local span, Arg the wire span carried in the frame, and
// Label the origin node id — Arg joins the two nodes' traces. Like
// Interrupt it must run inside the scheduler (an External callback).
// It reports whether the target existed (false: it had already
// finished or never existed, the throw was the trivial success, and
// the caller answers NoProc).
func (rt *RT) InterruptFromWire(tid ThreadID, e exc.Exception, origin string, wireSpan uint64) bool {
	target, p := rt.admit(0, obs.MaskUnknown, tid, e, 0)
	if target == nil {
		return false
	}
	rt.obsRemoteInject(tid, e, origin, p.span, wireSpan)
	rt.routeExc(target, p)
	return true
}

// obsRemoteInject records the receiver-side KindRemoteThrowTo event.
func (rt *RT) obsRemoteInject(tid ThreadID, e exc.Exception, origin string, span, wireSpan uint64) {
	if rt.olog == nil {
		return
	}
	rt.olog.Record(obs.Event{
		TS: rt.nowNS(), Span: span, Thread: int64(tid), Arg: wireSpan,
		Exc: e, Label: origin, Kind: obs.KindRemoteThrowTo,
	})
}

// NoteLinkEvent records a cluster link coming up (handshake complete)
// or going down (closed, or declared dead by the heartbeat failure
// detector); Label is the peer node id. Must run inside the scheduler
// (an External callback), like every other owner-side record.
func (rt *RT) NoteLinkEvent(up bool, peer string) {
	if rt.olog == nil {
		return
	}
	kind := obs.KindLinkDown
	if up {
		kind = obs.KindLinkUp
	}
	rt.olog.Record(obs.Event{TS: rt.nowNS(), Label: peer, Kind: kind})
}

// InterruptMain sends e to the main thread; the idiom for converting a
// process-level signal (user interrupt, shutdown request) into an
// asynchronous exception.
func (rt *RT) InterruptMain(e exc.Exception) {
	if t := rt.MainThread(); t != nil {
		rt.Interrupt(t.id, e)
	}
}
