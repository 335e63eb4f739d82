package obs

import "fmt"

// CheckInvariants validates a Seq-sorted snapshot against the
// semantics the events claim to witness. It returns one message per
// violation (empty slice = conformant). Checks that need the full
// history (enqueue↔deliver matching) are skipped when the recorder
// reports drops, since a wrapped ring legitimately loses prefixes;
// order and mask checks always run.
//
// Invariants checked:
//
//   - Seq strictly increases (global order is total and duplicates
//     are impossible).
//   - Every delivery's enqueue is sequenced before it: a KindDeliver
//     references a span whose KindThrowTo has a smaller Seq
//     (happens-before: the throw's atomic stamp precedes the mailbox
//     send precedes the delivery's stamp).
//   - A span delivers at most once.
//   - Rule Receive delivers only to unmasked targets; rule Interrupt
//     (FlagInterrupt) only to interruptible ones (mask is never
//     maskedUninterruptible).
//   - A KindCatch or uncaught KindFinish with a span follows that
//     span's delivery.
//   - A KindRestart carrying a span (the exception that killed the
//     child) follows that span's delivery — the restart really did
//     answer a delivered asynchronous exception.
//   - A promise resolves at most once (resolve-once is load-bearing:
//     AwaitEither's first-winner selection is exactly this rule), and
//     every KindAwait follows its span's KindPromiseResolve — a thread
//     never observes an unsettled promise.
//   - A KindSignalDeliver runs only in an unmasked target: a signal
//     handler firing inside a masked region is a violation (signals
//     are strictly weaker than exceptions — no Interrupt rule), and
//     its enqueue (KindThrowTo|FlagSignal) is sequenced before it,
//     at most one delivery per signal span.
//   - A span keeps its kind: a KindDeliver never closes a FlagSignal
//     enqueue, and a KindSignalDeliver only closes one.
//
// A recorder with mask-filtered events (Stats.Filtered > 0) is treated
// like one with drops: the filtered kinds are legitimately absent, so
// completeness checks are skipped.
func CheckInvariants(events []Event, st Stats) []string {
	var bad []string
	violate := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	complete := st.Dropped == 0 && st.Filtered == 0
	var lastSeq uint64
	enqueued := map[uint64]Event{}  // span -> throwTo event
	delivered := map[uint64]Event{} // span -> deliver event
	resolved := map[uint64]Event{}  // span -> promiseResolve event
	signalled := map[uint64]Event{} // span -> signalDeliver event

	for _, e := range events {
		if e.Seq <= lastSeq {
			violate("seq not strictly increasing at %v (prev %d)", e, lastSeq)
		}
		lastSeq = e.Seq

		switch e.Kind {
		case KindThrowTo:
			if e.Span == 0 {
				violate("throwTo without span: %v", e)
				break
			}
			if prev, dup := enqueued[e.Span]; dup {
				violate("span %d enqueued twice: %v and %v", e.Span, prev, e)
			}
			enqueued[e.Span] = e
		case KindDeliver:
			if e.Mask >= uint8(len(maskNames)) {
				violate("deliver with invalid mask %d: %v", e.Mask, e)
			} else if e.Flags&FlagInterrupt != 0 {
				if MaskName(e.Mask) == "maskedUninterruptible" {
					violate("rule Interrupt delivered to uninterruptible target: %v", e)
				}
			} else if e.Mask != 0 && e.Flags&FlagSelf == 0 {
				// Self-directed synchronous throwTo (§9's special case)
				// legitimately delivers under any mask; everything else
				// on the Receive path must be unmasked.
				violate("rule Receive delivered to masked target: %v", e)
			}
			if e.Span == 0 {
				violate("deliver without span: %v", e)
				break
			}
			if prev, dup := delivered[e.Span]; dup {
				violate("span %d delivered twice: %v and %v", e.Span, prev, e)
			}
			delivered[e.Span] = e
			enq, ok := enqueued[e.Span]
			if !ok {
				if complete {
					violate("deliver without matching enqueue: %v", e)
				}
				break
			}
			if enq.Flags&FlagSignal != 0 {
				violate("span %d enqueued as signal but delivered as exception: %v", e.Span, e)
			}
			if enq.Seq >= e.Seq {
				violate("enqueue %v not sequenced before deliver %v", enq, e)
			}
			if enq.Thread != e.Thread {
				violate("span %d enqueued against thread %d but delivered to %d", e.Span, enq.Thread, e.Thread)
			}
		case KindCatch:
			if e.Span == 0 {
				break // synchronous throw; no span to check
			}
			if _, ok := delivered[e.Span]; !ok && complete {
				violate("catch of span %d with no prior deliver: %v", e.Span, e)
			}
		case KindFinish:
			if e.Span == 0 || e.Flags&FlagUncaught == 0 {
				break
			}
			if _, ok := delivered[e.Span]; !ok && complete {
				violate("uncaught finish of span %d with no prior deliver: %v", e.Span, e)
			}
		case KindRestart:
			if e.Span == 0 {
				break // child died synchronously; nothing to link
			}
			if _, ok := delivered[e.Span]; !ok && complete {
				violate("restart linked to span %d with no prior deliver: %v", e.Span, e)
			}
		case KindPromiseResolve:
			if e.Span == 0 {
				violate("promiseResolve without span: %v", e)
				break
			}
			if prev, dup := resolved[e.Span]; dup {
				violate("promise span %d settled twice: %v and %v", e.Span, prev, e)
			}
			resolved[e.Span] = e
		case KindAwait:
			if e.Span == 0 {
				violate("await without span: %v", e)
				break
			}
			res, ok := resolved[e.Span]
			if !ok {
				if complete {
					violate("await of span %d with no prior promiseResolve: %v", e.Span, e)
				}
				break
			}
			if res.Seq >= e.Seq {
				violate("promiseResolve %v not sequenced before await %v", res, e)
			}
		case KindSignalDeliver:
			if e.Mask >= uint8(len(maskNames)) {
				violate("signalDeliver with invalid mask %d: %v", e.Mask, e)
			} else if e.Mask != 0 {
				// The masked-signal invariant: signal handlers run only
				// in unmasked targets. Unlike exceptions there is no
				// Interrupt rule and no self-throw exemption — any
				// masked delivery is a hole in the delivery path.
				violate("signal handler ran inside masked region: %v", e)
			}
			if e.Span == 0 {
				violate("signalDeliver without span: %v", e)
				break
			}
			if prev, dup := signalled[e.Span]; dup {
				violate("signal span %d delivered twice: %v and %v", e.Span, prev, e)
			}
			signalled[e.Span] = e
			enq, ok := enqueued[e.Span]
			if !ok {
				if complete {
					violate("signalDeliver without matching enqueue: %v", e)
				}
				break
			}
			if enq.Flags&FlagSignal == 0 {
				violate("span %d enqueued as exception but delivered as signal: %v", e.Span, e)
			}
			if enq.Seq >= e.Seq {
				violate("enqueue %v not sequenced before signalDeliver %v", enq, e)
			}
			if enq.Thread != e.Thread {
				violate("signal span %d enqueued against thread %d but delivered to %d", e.Span, enq.Thread, e.Thread)
			}
		}
	}
	return bad
}
