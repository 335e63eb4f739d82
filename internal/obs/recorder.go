package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"asyncexc/internal/exc"
)

// Defaults for NewRecorder sizing.
const (
	// DefaultRingCap is the default per-shard ring capacity. Sized so
	// a full ring (~1 MB of records) stays cache-friendly; soak tests
	// that must not drop pass a larger explicit capacity.
	DefaultRingCap = 1 << 14
	// stageCap is the owner-only staging buffer size; the scheduler
	// flushes when it publishes stats, and a full stage forces an
	// early flush so staging can never lose events.
	stageCap = 256
	// initialRingCap is where a ring starts; it doubles on demand up
	// to the configured capacity, so a quiet shard never pays for a
	// full-size ring.
	initialRingCap = 1 << 10
	// labelCap bounds each shard's label intern table. Labels such as
	// per-connection thread names are unbounded in number; past the
	// cap an event keeps its other fields, loses its label, and the
	// loss is counted (ShardCounters.LabelsDropped).
	labelCap = 1 << 12
)

// record is the stored form of an Event: pointer-free (the exception
// and label are interned indices), so rings and staging buffers live
// in no-scan memory — storing a record takes no GC write barriers and
// collections never rescan event history. Snapshot resolves records
// back to Events.
type record struct {
	seq    uint64
	ts     int64
	span   uint64
	thread int64
	peer   int64
	arg    uint64
	exc    uint32 // 1-based index into ShardLog.excs; 0 = none
	label  uint32 // 1-based index into ShardLog.labels; 0 = none
	kind   Kind
	mask   uint8
	flags  uint8
}

// Recorder collects Events from every shard of one runtime. Create
// one per system (sched.Options.Observer) and keep a reference: the
// exporters and Stats are read from it, not from the runtime.
//
// Concurrency contract: Record/Flush on a ShardLog are owner-only
// (the scheduler calls them from the shard's goroutine); everything
// else — Snapshot, Stats, NextSpan — is safe from any goroutine at
// any time. A snapshot taken while the system runs lags each shard
// by the un-flushed staging buffer: at most 64 time slices of a busy
// shard, nothing of an idle one.
type Recorder struct {
	ringCap int

	seq   atomic.Uint64 // global event sequence (happens-before consistent)
	spans atomic.Uint64 // throwTo span ids

	// disabled is the inverted per-kind enable mask (see mask.go);
	// zero — the zero value — means every kind is recorded. filtered
	// counts events dropped by the mask.
	disabled atomic.Uint64
	filtered atomic.Uint64

	// Pending-latency histogram accumulators (see hist.go).
	latCounts [latBuckets]atomic.Uint64
	latSum    atomic.Uint64
	latCount  atomic.Uint64

	mu     sync.Mutex // guards shards growth
	shards []*ShardLog
}

// NewRecorder creates a recorder whose shards each keep the most
// recent ringCap events (DefaultRingCap when ringCap <= 0).
func NewRecorder(ringCap int) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Recorder{ringCap: ringCap}
}

// RingCap returns the per-shard ring capacity.
func (r *Recorder) RingCap() int { return r.ringCap }

// NextSpan allocates a fresh throwTo span id (never 0).
func (r *Recorder) NextSpan() uint64 { return r.spans.Add(1) }

// ShardLog returns (creating on first use) the log for one shard.
// The scheduler calls this once per shard at attach time.
func (r *Recorder) ShardLog(shard int) *ShardLog {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.shards) <= shard {
		r.shards = append(r.shards, &ShardLog{
			rec:    r,
			shard:  int32(len(r.shards)),
			staged: make([]record, 0, stageCap),
			capMax: r.ringCap,
		})
	}
	return r.shards[shard]
}

func (r *Recorder) shardLogs() []*ShardLog {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shards[:len(r.shards):len(r.shards)]
}

// ShardLog is one shard's bounded event log: an owner-only staging
// buffer in front of a mutex-guarded overwrite-oldest ring. The hot
// path (Record) takes no locks unless the event carries an exception
// or label to intern — most don't; the ring lock is paid once per
// flush. The ring is allocated lazily and doubles up to the
// configured capacity, so memory tracks the event volume actually
// seen.
type ShardLog struct {
	rec   *Recorder
	shard int32

	// staged is written only by the owning shard goroutine.
	staged []record

	mu     sync.Mutex
	ring   []record
	capMax int    // configured capacity the ring may grow to
	head   uint64 // total events ever committed to the ring
	drops  uint64 // events overwritten before ever being snapshot
	// Intern tables (indices are 1-based; 0 means none). Distinct
	// exceptions per shard are few, so a linear Eq scan beats
	// maintaining map invariants for possibly-uncomparable exception
	// values. Labels are indexed by a map and capped at labelCap;
	// labelDrops counts labels refused once the table was full.
	excs       []exc.Exception
	labels     []string
	labelIdx   map[string]uint32
	labelDrops uint64
}

// Record stamps e (Seq, Shard) and stages it. Owner-only. A full
// stage flushes early, so no event is ever lost in staging; loss only
// happens — counted — when the ring itself wraps. For events carrying
// no exception or label, Stage is the cheaper equivalent.
func (l *ShardLog) Record(e Event) {
	if e.Kind == KindDeliver {
		l.rec.observeLatency(e.Arg)
	}
	if l.dropKind(e.Kind) {
		return
	}
	c := record{
		ts: e.TS, span: e.Span, thread: e.Thread, peer: e.Peer,
		arg: e.Arg, kind: e.Kind, mask: e.Mask, flags: e.Flags,
	}
	if e.Exc != nil || e.Label != "" {
		l.mu.Lock()
		c.exc = l.internExc(e.Exc)
		c.label = l.internLabel(e.Label)
		l.mu.Unlock()
	}
	c.seq = l.rec.seq.Add(1)
	if len(l.staged) == cap(l.staged) {
		l.Flush()
	}
	l.staged = append(l.staged, c)
}

// Stage is Record for the scalar-only events that dominate traces
// (park, unpark, steal, anonymous spawn, clean finish): the fields
// arrive in registers and go straight into the staging buffer, with
// no Event value built or copied on the way. Owner-only.
func (l *ShardLog) Stage(kind Kind, ts int64, span uint64, thread, peer int64, arg uint64, mask, flags uint8) {
	if kind == KindDeliver {
		l.rec.observeLatency(arg)
	}
	if l.dropKind(kind) {
		return
	}
	if len(l.staged) == cap(l.staged) {
		l.Flush()
	}
	l.staged = append(l.staged, record{
		seq: l.rec.seq.Add(1), ts: ts, span: span, thread: thread,
		peer: peer, arg: arg, kind: kind, mask: mask, flags: flags,
	})
}

// internExc returns the 1-based intern index for e; caller holds mu.
func (l *ShardLog) internExc(e exc.Exception) uint32 {
	if e == nil {
		return 0
	}
	for i, x := range l.excs {
		if x.Eq(e) {
			return uint32(i + 1)
		}
	}
	l.excs = append(l.excs, e)
	return uint32(len(l.excs))
}

// internLabel returns the 1-based intern index for s, or 0 — counted
// in labelDrops — when s is new and the table is full; caller holds mu.
func (l *ShardLog) internLabel(s string) uint32 {
	if s == "" {
		return 0
	}
	if i, ok := l.labelIdx[s]; ok {
		return i
	}
	if len(l.labels) >= labelCap {
		l.labelDrops++
		return 0
	}
	if l.labelIdx == nil {
		l.labelIdx = make(map[string]uint32)
	}
	l.labels = append(l.labels, s)
	l.labelIdx[s] = uint32(len(l.labels))
	return uint32(len(l.labels))
}

// resolve turns a stored record back into an Event; caller holds mu.
func (l *ShardLog) resolve(c record) Event {
	e := Event{
		Seq: c.seq, TS: c.ts, Span: c.span, Thread: c.thread,
		Peer: c.peer, Arg: c.arg, Shard: l.shard,
		Kind: c.kind, Mask: c.mask, Flags: c.flags,
	}
	if c.exc != 0 {
		e.Exc = l.excs[c.exc-1]
	}
	if c.label != 0 {
		e.Label = l.labels[c.label-1]
	}
	return e
}

// Flush commits staged events to the shared ring. Owner-only; the
// scheduler calls it when it publishes stats, before idling and on
// shutdown.
func (l *ShardLog) Flush() {
	if len(l.staged) == 0 {
		return
	}
	l.mu.Lock()
	// Grow geometrically up to the configured capacity. Growth only
	// happens before the ring first wraps (head <= len(ring)), so the
	// committed prefix copies straight across.
	for len(l.ring) < l.capMax && int(l.head)+len(l.staged) > len(l.ring) {
		n := len(l.ring) * 2
		if n < initialRingCap {
			n = initialRingCap
		}
		if n > l.capMax {
			n = l.capMax
		}
		grown := make([]record, n)
		copy(grown, l.ring[:l.head])
		l.ring = grown
	}
	n := uint64(len(l.ring))
	for s := l.staged; len(s) > 0; {
		c := copy(l.ring[l.head%n:], s)
		s = s[c:]
		l.head += uint64(c)
	}
	if l.head > n {
		l.drops = l.head - n
	}
	l.mu.Unlock()
	l.staged = l.staged[:0]
}

// snapshot appends the shard's committed events with Seq > since,
// oldest first.
func (l *ShardLog) snapshot(out []Event, since uint64) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := uint64(len(l.ring))
	if n == 0 {
		return out
	}
	kept := l.head
	if kept > n {
		kept = n
	}
	for i := l.head - kept; i < l.head; i++ {
		if c := l.ring[i%n]; c.seq > since {
			out = append(out, l.resolve(c))
		}
	}
	return out
}

// Snapshot returns the committed events of every shard merged into
// one Seq-ascending slice. Safe from any goroutine; see the Recorder
// concurrency contract for staleness.
func (r *Recorder) Snapshot() []Event { return r.SnapshotSince(0) }

// SnapshotSince is Snapshot restricted to events with Seq > since —
// the cursor primitive behind the streaming trace exporter: a client
// remembers the last Seq it saw and asks only for what followed.
// Events that wrapped out of a ring before being read are gone (count
// them via Stats.Dropped).
func (r *Recorder) SnapshotSince(since uint64) []Event {
	var out []Event
	for _, l := range r.shardLogs() {
		out = l.snapshot(out, since)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// ShardCounters are one shard's volume counters.
type ShardCounters struct {
	// Committed is the number of events committed to the ring
	// (including ones since overwritten).
	Committed uint64
	// Dropped is the number of committed events lost to ring wrap.
	Dropped uint64
	// LabelsDropped is the number of events recorded without their
	// label because the shard's label intern table was full.
	LabelsDropped uint64
}

// Stats is a recorder-wide volume snapshot.
type Stats struct {
	// Recorded counts every event ever stamped (committed or still
	// staged).
	Recorded uint64
	// Committed and Dropped aggregate the shard counters.
	Committed uint64
	Dropped   uint64
	// Filtered counts events discarded by the per-kind enable mask
	// before being stamped (see mask.go).
	Filtered uint64
	// Spans counts throwTo span ids allocated.
	Spans uint64
	// Shards holds the per-shard counters.
	Shards []ShardCounters
}

// Stats reads the volume counters. Safe from any goroutine.
func (r *Recorder) Stats() Stats {
	st := Stats{Recorded: r.seq.Load(), Filtered: r.filtered.Load(), Spans: r.spans.Load()}
	for _, l := range r.shardLogs() {
		l.mu.Lock()
		c := ShardCounters{Committed: l.head, Dropped: l.drops, LabelsDropped: l.labelDrops}
		l.mu.Unlock()
		st.Committed += c.Committed
		st.Dropped += c.Dropped
		st.Shards = append(st.Shards, c)
	}
	return st
}
