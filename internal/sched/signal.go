package sched

import "asyncexc/internal/obs"

// This file implements non-lethal signals: SignalTo(tid, sig) enqueues
// a notification that, at the delivery point, runs a registered
// handler in the target's context under a mask instead of unwinding
// the stack — the alert side of the paper's §9 exceptions-vs-alerts
// discussion, operationalized the way Strygin & Thielecke's signal
// semantics does (a signal runs a handler at an interruptible point;
// it never destroys the continuation).
//
// Delivery discipline — signals are strictly weaker than exceptions:
//
//   - A signal is delivered only at an unmasked redex boundary of a
//     RUNNING thread. There is no analogue of rule (Interrupt): a
//     parked thread keeps its signals queued until it runs again, and
//     masked code never sees a handler fire (the chaos soaks check
//     exactly this — a signalDeliver event inside a masked region is
//     an invariant violation).
//   - Exceptions always win: while the pending-exception queue is
//     non-empty no signal is delivered, and a thread that dies
//     discards its queued signals (a handler never runs on an unwound
//     stack).
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

// pendingSig is one entry in a thread's signal queue.
type pendingSig struct {
	sig  Signal
	from ThreadID
	// span and enqNS carry the obs span id (opened by the enqueue's
	// KindThrowTo|FlagSignal event) and enqueue timestamp to the
	// KindSignalDeliver event.
	span  uint64
	enqNS int64
}

// SignalTo sends a non-lethal signal to tid. Like the asynchronous
// throwTo it never blocks; a dead or unknown target is a trivial
// success (the signal is dropped). Unlike throwTo the target's stack
// is never unwound: its handler for sig.Name runs at the target's
// next unmasked redex boundary.
func SignalTo(tid ThreadID, sig Signal) Node {
	return primNode{name: "signalTo", step: func(rt *RT, t *Thread) (Node, bool) {
		rt.signalTo(t, tid, sig)
		return retNode{UnitValue}, false
	}}
}

func (rt *RT) signalTo(from *Thread, tid ThreadID, sig Signal) {
	rt.stats.SignalsSent++
	target := rt.eng.lookup(tid)
	if target == nil {
		rt.stats.SignalsDropped++
		rt.obsSignalEnqueue(tid, from.id, sig, obs.FlagTargetDead)
		return
	}
	span, enqNS := rt.obsSignalEnqueue(tid, from.id, sig, 0)
	s := pendingSig{sig: sig, from: from.id, span: span, enqNS: enqNS}
	if target.owner.Load() == rt && rt.signalLocal(target, s) {
		return
	}
	rt.eng.send(target.owner.Load(), shardMsg{kind: msgSignal, t: target, sig: sig, span: span, enqNS: enqNS, seq: uint64(from.id)})
}

// signalLocal lands a signal on a thread owned by this shard. It
// returns false when ownership moved mid-call and the caller must
// re-route. Parked targets keep the signal queued — there is
// deliberately no Interrupt rule for signals.
func (rt *RT) signalLocal(t *Thread, s pendingSig) bool {
	rt.smu.Lock()
	if t.owner.Load() != rt {
		rt.smu.Unlock()
		return false
	}
	if t.status == statusRunnable {
		t.sigs = append(t.sigs, s)
		rt.smu.Unlock()
		return true
	}
	rt.smu.Unlock()
	// Parked or done: stable (only the owner transitions those states,
	// and parked threads are never stolen).
	if t.status == statusDone {
		rt.stats.SignalsDropped++
		return true
	}
	t.sigs = append(t.sigs, s)
	return true
}

// deliverSignal fires at most one queued signal at the current step's
// delivery point. Caller (rt.step) has verified: sigs non-empty, no
// pending exceptions, mask Unmasked, and the current node is a
// primitive or return redex. The handler is spliced IN FRONT of the
// current continuation — no frame is popped, nothing unwinds:
//
//	cur := Then(MaskTo(handler(sig), Masked), cur)
func (rt *RT) deliverSignal(t *Thread) {
	s := t.sigs[0]
	copy(t.sigs, t.sigs[1:])
	t.sigs[len(t.sigs)-1] = pendingSig{}
	t.sigs = t.sigs[:len(t.sigs)-1]
	if sim := rt.opts.Sim; sim != nil {
		sim.Observe(SimEvent{Kind: SimSignal, Shard: uint8(rt.shardID), A: SimHash(s.sig.Name), B: uint64(t.id)})
	}
	h := t.sigHandlers[s.sig.Name]
	if h == nil {
		rt.stats.SignalsDropped++
		return
	}
	rt.stats.SignalsDelivered++
	rt.obsSignalDeliver(t, s)
	saved := t.cur
	t.cur = bindNode{maskNode{h(s.sig), Masked}, func(any) Node { return saved }}
}

// InstallSignalHandler registers h as this thread's handler for name,
// returning the previous registration (nil Node-wrapped as any) so
// scoped installation can restore it. Handlers are per-thread state
// and are not inherited by forked children.
func InstallSignalHandler(name string, h func(Signal) Node) Node {
	return primNode{name: "installSignalHandler", step: func(rt *RT, t *Thread) (Node, bool) {
		var prev func(Signal) Node
		if t.sigHandlers == nil {
			t.sigHandlers = make(map[string]func(Signal) Node)
		} else {
			prev = t.sigHandlers[name]
		}
		t.sigHandlers[name] = h
		return retNode{prev}, false
	}}
}

// RestoreSignalHandler reinstates a previous registration captured by
// InstallSignalHandler (prev may be nil: the name had no handler).
func RestoreSignalHandler(name string, prev func(Signal) Node) Node {
	return primNode{name: "restoreSignalHandler", step: func(rt *RT, t *Thread) (Node, bool) {
		if prev == nil {
			if t.sigHandlers != nil {
				delete(t.sigHandlers, name)
			}
		} else {
			if t.sigHandlers == nil {
				t.sigHandlers = make(map[string]func(Signal) Node)
			}
			t.sigHandlers[name] = prev
		}
		return retNode{UnitValue}, false
	}}
}

// PendingSignals reports the calling thread's queued-signal count
// (tests and soak audits).
func PendingSignals() Node {
	return primNode{name: "pendingSignals", step: func(rt *RT, t *Thread) (Node, bool) {
		return retNode{len(t.sigs)}, false
	}}
}
