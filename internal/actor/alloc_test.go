package actor

import (
	"runtime"
	"testing"

	"asyncexc/internal/core"
)

// event40 is a 40-byte message shaped like broker.Event (string, uint64,
// string), so the counts below price what the broker fanout moves.
type event40 struct {
	topic   string
	seq     uint64
	payload string
}

// heapCost runs prog on a fresh serial runtime and returns the heap
// bytes and allocations the run made, runtime set-up included.
func heapCost(t *testing.T, prog core.IO[core.Unit]) (bytes, allocs float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, e, err := core.RunWith(core.DefaultOptions(), prog); e != nil || err != nil {
		t.Fatalf("run: exc=%v err=%v", e, err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// TestSendAllReceiveAllBytesPerMessage pins the batch path's heap cost:
// 2000 rounds of SendAll(256 messages of 40 bytes) then ReceiveAll, on
// the serial engine. The mailbox's two buffers are recycled, so a
// message's own 40 bytes are allocated only while the buffers first
// grow; what remains is the per-batch overhead of the IO nodes and
// the locked sections, ~7 bytes a message, under a bound of 12. It
// reads 6.9 bytes and 42 allocations a batch. The mailbox that started
// a fresh buffer after each drain read 48.7 bytes and 43 allocations;
// the one that handed messages off, regrowing its buffer entry by
// entry and copying each drained batch out of its entries, read 178.4
// bytes and 87 allocations.
func TestSendAllReceiveAllBytesPerMessage(t *testing.T) {
	const rounds, batch = 2000, 256
	const maxBytesPerMsg, maxAllocsPerBatch = 12, 87
	evs := make([]event40, batch)
	for i := range evs {
		evs[i] = event40{topic: "t", seq: uint64(i)}
	}
	prog := core.Bind(NewMailbox[event40]("bytes"), func(mb *Mailbox[event40]) core.IO[core.Unit] {
		return core.ReplicateM_(rounds, core.Then(mb.SendAll(evs), core.Void(mb.ReceiveAll())))
	})
	bytes, allocs := heapCost(t, prog)
	perMsg, perBatch := bytes/(rounds*batch), allocs/rounds
	t.Logf("%.1f bytes per message, %.1f allocations per batch", perMsg, perBatch)
	if perMsg > maxBytesPerMsg {
		t.Errorf("SendAll+ReceiveAll allocates %.1f bytes per message, bound %d", perMsg, maxBytesPerMsg)
	}
	if perBatch > maxAllocsPerBatch {
		t.Errorf("SendAll+ReceiveAll makes %.1f allocations per batch, bound %d", perBatch, maxAllocsPerBatch)
	}
}

// TestSendReceiveAllocs pins the one-message path: a Send into an
// idle mailbox followed by a Receive that finds it buffered. It reads
// 62 allocations, with -race or not; the hand-off mailbox read 77.
func TestSendReceiveAllocs(t *testing.T) {
	const rounds, maxAllocs = 20000, 76
	prog := core.Bind(NewMailbox[event40]("one"), func(mb *Mailbox[event40]) core.IO[core.Unit] {
		return core.ReplicateM_(rounds, core.Then(mb.Send(event40{topic: "t"}), core.Void(mb.Receive())))
	})
	_, allocs := heapCost(t, prog)
	perRound := allocs / rounds
	t.Logf("%.1f allocations per Send+Receive", perRound)
	if perRound > maxAllocs {
		t.Errorf("buffered Send+Receive makes %.1f allocations, bound %d", perRound, maxAllocs)
	}
}
