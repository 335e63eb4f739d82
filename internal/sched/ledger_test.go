package sched

import (
	"testing"
	"time"

	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// TestEntryLedger checks that the counters and the trace are two views
// of one timeline of entries into the interrupt queue. The program
// sends an exception or a signal through every door: an environment
// Interrupt, a kill left pending in a masked thread until it finishes,
// a speculation that reaps its finished winner and a parked loser, a
// kill and a signal to a dead thread, and a CancelPromise whose
// producer sits on the other shard. Every exception sent is delivered
// or dropped, and every one sent, signal or not, leaves one enqueue.
func TestEntryLedger(t *testing.T) {
	for _, shards := range []int{1, 2} {
		rec := obs.NewRecorder(1 << 16)
		opts := DefaultOptions()
		opts.Shards = shards
		opts.Observer = rec
		rt := NewRT(opts)

		settle := Sleep(time.Millisecond) // ends once no thread can run
		kill := exc.ThreadKilled{}
		swallow := func(m Node) Node {
			return Catch(m, func(exc.Exception) Node { return ReturnUnit() })
		}
		parkForever := Bind(NewEmptyMVar(), func(v any) Node { return TakeMVar(v.(*MVar)) })

		environment := Bind(Fork(swallow(parkForever)), func(v any) Node {
			tid := v.(ThreadID)
			return Then(settle, primNode{func(rt *RT, _ *Thread) (Node, bool) {
				rt.External(func(rt *RT) { rt.Interrupt(tid, kill) })
				return unitRet, false
			}})
		})
		// Forked under Block, the child never reaches a delivery point:
		// the kill stays queued until it finishes.
		pendingAtFinish := Bind(Block(Fork(ReturnUnit())), func(v any) Node {
			return ThrowTo(v.(ThreadID), kill)
		})
		speculate := SpeculateNode("spec", []Node{Return(1), parkForever})
		dead := Bind(Fork(ReturnUnit()), func(v any) Node {
			tid := v.(ThreadID)
			return Then(settle, Then(ThrowTo(tid, kill), SignalTo(tid, Signal{Name: "reload"})))
		})
		cancel := Bind(AsyncNode("producer", swallow(parkForever)), func(v any) Node {
			p := v.(*Promise)
			return Then(settle, Delay(func() Node {
				// The parked producer stays put; cancel from the other shard.
				other := (rt.eng.table.get(p.producer).owner.Load().shardID + 1) % shards
				return ForkOn(other, CancelPromise(p), "canceller")
			}))
		})

		prog := Then(environment, Then(pendingAtFinish, Then(speculate, Then(dead, Then(cancel, settle)))))
		if _, err := rt.RunMain(prog); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}

		st := rt.Stats()
		if st.ThrowTos != 6 {
			t.Errorf("shards=%d: ThrowTos %d, want 6", shards, st.ThrowTos)
		}
		if st.ThrowTos != st.Delivered+st.ThrowToDead {
			t.Errorf("shards=%d: ThrowTos %d != Delivered %d + ThrowToDead %d", shards, st.ThrowTos, st.Delivered, st.ThrowToDead)
		}
		if shards > 1 && st.CrossShardThrowTo == 0 {
			t.Errorf("shards=%d: the cross-shard cancellation was not counted", shards)
		}
		if os := rec.Stats(); os.Dropped != 0 {
			t.Fatalf("shards=%d: recorder dropped %d events", shards, os.Dropped)
		}
		var throws, signals uint64
		for _, e := range rec.Snapshot() {
			if e.Kind != obs.KindThrowTo {
				continue
			}
			switch {
			case e.Flags&obs.FlagSignal != 0:
				signals++
				if e.Mask == obs.MaskUnknown {
					t.Errorf("shards=%d: signal enqueue without the sender's mask: %v", shards, e)
				}
			case e.Flags&obs.FlagDeadlock == 0:
				throws++
			}
		}
		if throws != st.ThrowTos {
			t.Errorf("shards=%d: %d exception enqueue events, ThrowTos %d", shards, throws, st.ThrowTos)
		}
		if signals != st.SignalsSent || st.SignalsSent != 1 {
			t.Errorf("shards=%d: %d signal enqueue events, SignalsSent %d, want 1", shards, signals, st.SignalsSent)
		}
	}
}
