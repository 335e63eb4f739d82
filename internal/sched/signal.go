package sched

import "asyncexc/internal/exc"

// This file implements non-lethal signals: SignalTo(tid, sig) enqueues
// a notification that, at the delivery point, runs a registered
// handler in the target's context under a mask instead of unwinding
// the stack — the alert side of the paper's §9 exceptions-vs-alerts
// discussion, operationalized the way Strygin & Thielecke's signal
// semantics does (a signal runs a handler at an interruptible point;
// it never destroys the continuation).
//
// A signal rides the thread's one interrupt queue as a non-lethal
// pending entry (signalEntry), along the same route as an asynchronous
// exception. Delivery discipline — signals are strictly weaker than
// exceptions:
//
//   - A signal is delivered only at an unmasked redex boundary of a
//     RUNNING thread. There is no analogue of rule (Interrupt): a
//     parked thread keeps its signals queued until it runs again, and
//     masked code never sees a handler fire (the chaos soaks check
//     exactly this — a signalDeliver event inside a masked region is
//     an invariant violation).
//   - Exceptions always win: the raise sites pass over signals, no
//     signal is delivered while a lethal entry is queued, and a thread
//     that dies discards its queued signals (a handler never runs on
//     an unwound stack).
//   - The handler runs under Masked, so it cannot itself be torn by
//     rule (Receive) mid-handler, but it remains interruptible at
//     operations that wait (§9: handlers themselves interruptible).
//     When it returns, the mask restores and the original continuation
//     resumes untouched. A handler that throws unwinds the thread's
//     real stack, exactly as if the interrupted redex had thrown.
//   - One signal per delivery point, and no nesting: delivery requires
//     Unmasked, and the handler body runs Masked.

// Signal is a non-lethal asynchronous notification: delivered to a
// thread it runs that thread's registered handler for Name instead of
// raising an exception. Signals with no registered handler are
// dropped at their delivery point (counted in Stats.SignalsDropped).
type Signal struct {
	// Name selects the handler (e.g. "reload", "drain").
	Name string
	// Payload carries optional data to the handler.
	Payload any
}

// signalEntry is a signal in flight: the non-lethal kind of pending
// entry. It is an exc.Exception only so that it can ride the pending
// queue and msgThrowTo; it is never raised.
type signalEntry struct {
	sig  Signal
	from ThreadID
}

func (s *signalEntry) ExceptionName() string   { return "Signal" }
func (s *signalEntry) Eq(o exc.Exception) bool { return o == exc.Exception(s) }
func (s *signalEntry) String() string          { return "signal " + s.sig.Name }

// SignalTo sends a non-lethal signal to tid. Like the asynchronous
// throwTo it never blocks; a dead or unknown target is a trivial
// success (the signal is dropped). Unlike throwTo the target's stack
// is never unwound: its handler for sig.Name runs at the target's
// next unmasked redex boundary.
func SignalTo(tid ThreadID, sig Signal) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		rt.post(t.id, uint8(t.mask), tid, &signalEntry{sig: sig, from: t.id})
		return unitRet, false
	}}
}

// deliverSignal fires the oldest queued signal at the current step's
// delivery point, unless an exception is pending: exceptions always
// win, bar the IpSignalFirst mutation seam, consulted only when both
// kinds are queued. Caller (rt.step) has verified: mask Unmasked, and
// the current node is a primitive or return redex. The handler is
// spliced IN FRONT of the current continuation — no frame is popped,
// nothing unwinds:
//
//	cur := Then(MaskTo(handler(sig), Masked), cur)
func (rt *RT) deliverSignal(t *Thread) {
	i, lethal := -1, false
	for j, p := range t.pending {
		if p.lethal() {
			lethal = true
		} else if i < 0 {
			i = j
		}
	}
	if i < 0 || lethal && !rt.simSeam(IpSignalFirst, t) {
		return
	}
	p := t.dequeuePendingAt(i)
	s := p.e.(*signalEntry)
	if sim := rt.opts.Sim; sim != nil {
		sim.Observe(SimEvent{Kind: SimSignal, Shard: uint8(rt.shardID), A: SimHash(s.sig.Name), B: uint64(t.id)})
	}
	h := t.sigHandlers[s.sig.Name]
	if h == nil {
		rt.stats.SignalsDropped++
		return
	}
	rt.stats.SignalsDelivered++
	rt.obsSignalDeliver(t, p)
	t.cur = thenNode{maskNode{h(s.sig), Masked}, t.cur}
}

// InstallSignalHandler registers h as this thread's handler for name,
// returning the previous registration (nil when there was none) so
// scoped installation can restore it. A nil h removes the
// registration. Handlers are per-thread state and are not inherited
// by forked children.
func InstallSignalHandler(name string, h func(Signal) Node) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		prev := t.sigHandlers[name]
		if h == nil {
			delete(t.sigHandlers, name)
		} else {
			if t.sigHandlers == nil {
				t.sigHandlers = make(map[string]func(Signal) Node)
			}
			t.sigHandlers[name] = h
		}
		return retNode{prev}, false
	}}
}
