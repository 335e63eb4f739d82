// Package obs is the exception-delivery tracing and metrics layer: it
// makes the paper's central question — *where* may an asynchronous
// exception be delivered? — observable at runtime.
//
// The scheduler (internal/sched) records a fixed-size Event at each of
// the paper's interesting transition points: thread spawn (rule Fork),
// throwTo placing an exception in flight (rule ThrowTo), the exception
// being raised in its target (rules Receive and Interrupt, with the
// target's mask state and the pending-queue latency), a catch frame
// unwinding into its handler (rule Catch), MVar blocks and wakes
// (rules Stuck TakeMVar / Stuck PutMVar and their handoffs), work
// stealing, load shedding, retries, circuit-breaker transitions,
// expired deadlines and supervisor restarts. Events carry a globally
// ordered sequence number whose order is consistent with the
// happens-before edges of the runtime (an enqueue is always sequenced
// before its delivery, a delivery before its catch), and throwTo
// events carry a span identifier linking thrower → target → eventual
// catch frame, so a kill storm is reconstructable end to end.
//
// Memory is bounded: each execution shard owns a ring buffer
// (overwrite-oldest) plus a small owner-only staging buffer that the
// scheduler flushes when it publishes stats, so the record hot path
// is a single atomic increment and a slice append — no locks. Events
// that fall off the ring are counted in per-shard drop counters, never
// silently lost.
//
// Two exporters turn recordings into operator-facing artifacts:
//
//   - WriteChromeTrace renders a merged snapshot as Chrome trace_event
//     JSON (load in chrome://tracing or https://ui.perfetto.dev),
//     with flow arrows for throwTo spans;
//   - WritePrometheus renders counter/gauge samples in the Prometheus
//     text exposition format (internal/httpd serves it on /metrics).
//
// CheckInvariants validates a snapshot against the semantics: every
// delivery has a matching enqueue with the same span, sequenced
// before it; internal/chaos soaks this under kill storms.
//
// See docs/OBSERVABILITY.md for the event taxonomy, the mapping from
// each event to a rule of the paper's Figure 5, and an end-to-end
// axhttpd walkthrough.
package obs
