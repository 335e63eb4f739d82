package chaos

import (
	"testing"

	"asyncexc/internal/obs"
)

// TestObsSoakSerial runs kill-storm scenarios with an observer attached
// and checks the recorded event stream: no events are lost below the
// ring watermark, the stream satisfies the delivery invariants — in
// particular, every delivered exception event has a matching
// throwTo-enqueue event for the same span, sequenced before it, with
// the target's mask state recorded — and the event counts reconcile
// with the scheduler's own counters.
func TestObsSoakSerial(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := DefaultConfig(seed)
		cfg.Kills = 30
		runObsSoak(t, cfg)
	}
}

// TestObsSoakParallel is the same soak on the work-stealing engine,
// where enqueue and deliver routinely land on different shards and the
// happens-before edge crosses a mailbox.
func TestObsSoakParallel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := DefaultConfig(seed)
		cfg.Kills = 30
		cfg.Shards = 4
		runObsSoak(t, cfg)
	}
}

func runObsSoak(t *testing.T, cfg Config) {
	t.Helper()
	// The watermark: a ring deep enough that the soak must not drop.
	rec := obs.NewRecorder(1 << 18)
	cfg.Observer = rec
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("seed %d shards %d: %v", cfg.Seed, cfg.Shards, err)
	}
	if rep.Failed() {
		t.Fatalf("seed %d shards %d: scenario violations: %v", cfg.Seed, cfg.Shards, rep.Violations)
	}

	st := rec.Stats()
	if st.Dropped != 0 {
		t.Fatalf("seed %d shards %d: %d events dropped below watermark (%+v)",
			cfg.Seed, cfg.Shards, st.Dropped, st)
	}
	if st.Recorded != st.Committed {
		t.Fatalf("seed %d shards %d: %d recorded but %d committed — staged events not flushed",
			cfg.Seed, cfg.Shards, st.Recorded, st.Committed)
	}

	events := rec.Snapshot()
	if bad := obs.CheckInvariants(events, st); len(bad) > 0 {
		for _, v := range bad {
			t.Errorf("seed %d shards %d: %s", cfg.Seed, cfg.Shards, v)
		}
		t.FailNow()
	}

	// Reconcile against the scheduler's counters: one deliver event per
	// delivery, each carrying a concrete mask state, and one enqueue
	// event per exception placed in flight (signals and the deadlock
	// detector's interrupts are not throwTos).
	var delivers, throws uint64
	for _, e := range events {
		switch e.Kind {
		case obs.KindDeliver:
			delivers++
			if e.Mask == obs.MaskUnknown {
				t.Errorf("seed %d shards %d: deliver without mask state: %v", cfg.Seed, cfg.Shards, e)
			}
		case obs.KindThrowTo:
			if e.Flags&(obs.FlagSignal|obs.FlagDeadlock) == 0 {
				throws++
			}
		}
	}
	if delivers != rep.KillsDelivered {
		t.Errorf("seed %d shards %d: %d deliver events but scheduler counted %d deliveries",
			cfg.Seed, cfg.Shards, delivers, rep.KillsDelivered)
	}
	if throws != rep.ThrowTos {
		t.Errorf("seed %d shards %d: %d enqueue events but scheduler counted %d throwTos",
			cfg.Seed, cfg.Shards, throws, rep.ThrowTos)
	}
}
