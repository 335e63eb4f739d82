package obs

import (
	"fmt"
	"sync"
	"testing"

	"asyncexc/internal/exc"
)

// TestLabelTableBounded records 10⁵ distinct labels on one shard: the
// intern table stops at labelCap, every label past it is counted as
// dropped instead of interned, and the first labels still resolve.
func TestLabelTableBounded(t *testing.T) {
	const n = 100000
	r := NewRecorder(1 << 17)
	l := r.ShardLog(0)
	for i := 0; i < n; i++ {
		l.Record(Event{Kind: KindSpawn, Thread: int64(i), Label: fmt.Sprintf("conn-%d", i)})
	}
	l.Record(Event{Kind: KindSpawn, Thread: n, Label: "conn-0"})
	l.Flush()
	if len(l.labels) != labelCap || len(l.labelIdx) != labelCap {
		t.Fatalf("label table holds %d (index %d), want the cap %d", len(l.labels), len(l.labelIdx), labelCap)
	}
	if got := r.Stats().Shards[0].LabelsDropped; got != n-labelCap {
		t.Fatalf("LabelsDropped = %d, want %d", got, n-labelCap)
	}
	evs := r.Snapshot()
	if len(evs) != n+1 {
		t.Fatalf("snapshot has %d events, want %d", len(evs), n+1)
	}
	for _, i := range []int{0, labelCap - 1} {
		if want := fmt.Sprintf("conn-%d", i); evs[i].Label != want {
			t.Fatalf("event %d has label %q, want %q", i, evs[i].Label, want)
		}
	}
	if evs[labelCap].Label != "" || evs[n-1].Label != "" {
		t.Fatalf("labels past the cap were kept: %q, %q", evs[labelCap].Label, evs[n-1].Label)
	}
	if evs[n].Label != "conn-0" {
		t.Fatalf("a first label re-recorded after the cap resolved to %q", evs[n].Label)
	}
}

func TestRecordFlushSnapshot(t *testing.T) {
	r := NewRecorder(64)
	l0 := r.ShardLog(0)
	l1 := r.ShardLog(1)

	l0.Record(Event{Kind: KindSpawn, Thread: 1, Label: "main"})
	l1.Record(Event{Kind: KindSpawn, Thread: 2, Peer: 1, Label: "worker"})
	l0.Record(Event{Kind: KindThrowTo, Thread: 2, Peer: 1, Span: r.NextSpan(), Exc: exc.ThreadKilled{}})
	l0.Flush()
	l1.Flush()

	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("snapshot has %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (snapshot must be seq-sorted)", i, e.Seq, i+1)
		}
	}
	if evs[0].Shard != 0 || evs[1].Shard != 1 {
		t.Fatalf("shard stamps wrong: %v / %v", evs[0], evs[1])
	}

	st := r.Stats()
	if st.Recorded != 3 || st.Committed != 3 || st.Dropped != 0 || st.Spans != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Shards) != 2 || st.Shards[0].Committed != 2 || st.Shards[1].Committed != 1 {
		t.Fatalf("per-shard stats = %+v", st.Shards)
	}
}

func TestUnflushedEventsAreInvisible(t *testing.T) {
	r := NewRecorder(16)
	l := r.ShardLog(0)
	l.Record(Event{Kind: KindSpawn, Thread: 1})
	if n := len(r.Snapshot()); n != 0 {
		t.Fatalf("staged-only event visible in snapshot (%d events)", n)
	}
	l.Flush()
	if n := len(r.Snapshot()); n != 1 {
		t.Fatalf("flushed event missing from snapshot (%d events)", n)
	}
}

func TestRingWrapCountsDrops(t *testing.T) {
	const ringCap, total = 8, 20
	r := NewRecorder(ringCap)
	l := r.ShardLog(0)
	for i := 0; i < total; i++ {
		l.Record(Event{Kind: KindPark, Thread: int64(i)})
	}
	l.Flush()

	evs := r.Snapshot()
	if len(evs) != ringCap {
		t.Fatalf("snapshot has %d events, want ring cap %d", len(evs), ringCap)
	}
	// The retained window must be the *newest* events.
	if evs[0].Seq != total-ringCap+1 || evs[len(evs)-1].Seq != total {
		t.Fatalf("retained window [%d, %d], want [%d, %d]",
			evs[0].Seq, evs[len(evs)-1].Seq, total-ringCap+1, total)
	}
	st := r.Stats()
	if st.Dropped != total-ringCap {
		t.Fatalf("dropped = %d, want %d", st.Dropped, total-ringCap)
	}
	if st.Recorded != total || st.Committed != total {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStageAutoFlush(t *testing.T) {
	// Recording more than the staging capacity without an explicit
	// Flush must not lose events: the stage self-flushes when full.
	r := NewRecorder(4 * stageCap)
	l := r.ShardLog(0)
	for i := 0; i < stageCap+10; i++ {
		l.Record(Event{Kind: KindPark})
	}
	if n := len(r.Snapshot()); n != stageCap {
		t.Fatalf("auto-flush committed %d events, want %d", n, stageCap)
	}
}

func TestSnapshotConcurrentWithRecording(t *testing.T) {
	// Owner goroutine records+flushes while readers snapshot — the
	// -race build is the real assertion here.
	r := NewRecorder(256)
	l := r.ShardLog(0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				evs := r.Snapshot()
				var last uint64
				for _, e := range evs {
					if e.Seq <= last {
						t.Errorf("unordered snapshot: %d after %d", e.Seq, last)
						return
					}
					last = e.Seq
				}
				r.Stats()
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		l.Record(Event{Kind: KindPark, Thread: int64(i)})
		if i%7 == 0 {
			l.Flush()
		}
	}
	l.Flush()
	close(done)
	wg.Wait()
}

func TestNextSpanNeverZero(t *testing.T) {
	r := NewRecorder(8)
	if s := r.NextSpan(); s == 0 {
		t.Fatal("NextSpan returned 0 (reserved for 'no span')")
	}
	if a, b := r.NextSpan(), r.NextSpan(); b <= a {
		t.Fatalf("spans not increasing: %d then %d", a, b)
	}
}

func TestCheckInvariants(t *testing.T) {
	mk := func(events ...Event) []Event { return events }
	cases := []struct {
		name    string
		events  []Event
		dropped uint64
		wantBad int
	}{
		{
			name: "conformant receive",
			events: mk(
				Event{Seq: 1, Kind: KindThrowTo, Thread: 2, Peer: 1, Span: 7, Exc: exc.ThreadKilled{}},
				Event{Seq: 2, Kind: KindDeliver, Thread: 2, Span: 7, Mask: 0, Exc: exc.ThreadKilled{}},
				Event{Seq: 3, Kind: KindCatch, Thread: 2, Span: 7, Exc: exc.ThreadKilled{}},
			),
		},
		{
			name: "conformant interrupt while masked-interruptible",
			events: mk(
				Event{Seq: 1, Kind: KindThrowTo, Thread: 2, Peer: 1, Span: 7},
				Event{Seq: 2, Kind: KindDeliver, Thread: 2, Span: 7, Mask: 1, Flags: FlagInterrupt},
			),
		},
		{
			name: "deliver without enqueue",
			events: mk(
				Event{Seq: 1, Kind: KindDeliver, Thread: 2, Span: 7, Mask: 0},
			),
			wantBad: 1,
		},
		{
			name: "deliver without enqueue tolerated after drops",
			events: mk(
				Event{Seq: 9, Kind: KindDeliver, Thread: 2, Span: 7, Mask: 0},
			),
			dropped: 5,
		},
		{
			name: "receive while masked",
			events: mk(
				Event{Seq: 1, Kind: KindThrowTo, Thread: 2, Peer: 1, Span: 7},
				Event{Seq: 2, Kind: KindDeliver, Thread: 2, Span: 7, Mask: 1},
			),
			wantBad: 1,
		},
		{
			name: "interrupt of uninterruptible target",
			events: mk(
				Event{Seq: 1, Kind: KindThrowTo, Thread: 2, Peer: 1, Span: 7},
				Event{Seq: 2, Kind: KindDeliver, Thread: 2, Span: 7, Mask: 2, Flags: FlagInterrupt},
			),
			wantBad: 1,
		},
		{
			name: "double delivery of one span",
			events: mk(
				Event{Seq: 1, Kind: KindThrowTo, Thread: 2, Peer: 1, Span: 7},
				Event{Seq: 2, Kind: KindDeliver, Thread: 2, Span: 7},
				Event{Seq: 3, Kind: KindDeliver, Thread: 2, Span: 7},
			),
			wantBad: 1,
		},
		{
			name: "seq regression",
			events: mk(
				Event{Seq: 2, Kind: KindPark, Thread: 1},
				Event{Seq: 2, Kind: KindUnpark, Thread: 1},
			),
			wantBad: 1,
		},
		{
			name: "delivered to wrong thread",
			events: mk(
				Event{Seq: 1, Kind: KindThrowTo, Thread: 2, Peer: 1, Span: 7},
				Event{Seq: 2, Kind: KindDeliver, Thread: 3, Span: 7},
			),
			wantBad: 1,
		},
		{
			name: "conformant signal",
			events: mk(
				Event{Seq: 1, Kind: KindThrowTo, Thread: 2, Peer: 1, Span: 7, Label: "reload", Flags: FlagSignal},
				Event{Seq: 2, Kind: KindSignalDeliver, Thread: 2, Span: 7, Label: "reload"},
			),
		},
		{
			name: "exception delivered as signal",
			events: mk(
				Event{Seq: 1, Kind: KindThrowTo, Thread: 2, Peer: 1, Span: 7},
				Event{Seq: 2, Kind: KindSignalDeliver, Thread: 2, Span: 7, Label: "reload"},
			),
			wantBad: 1,
		},
		{
			name: "signal delivered as exception",
			events: mk(
				Event{Seq: 1, Kind: KindThrowTo, Thread: 2, Peer: 1, Span: 7, Label: "reload", Flags: FlagSignal},
				Event{Seq: 2, Kind: KindDeliver, Thread: 2, Span: 7},
			),
			wantBad: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := CheckInvariants(tc.events, Stats{Dropped: tc.dropped})
			if len(bad) != tc.wantBad {
				t.Fatalf("got %d violations, want %d: %v", len(bad), tc.wantBad, bad)
			}
		})
	}
}
