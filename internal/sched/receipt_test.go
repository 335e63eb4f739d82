package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"asyncexc/internal/exc"
)

// TestSyncThrowKilledBeforeItsThrowLands: a §9 synchronous thrower
// parks on its receipt and is killed before the target's shard has
// applied its msgThrowTo. The kill cancels the receipt, so when the
// message lands the exception is withdrawn: the thrower's throwTo
// raised, so the target must never raise it.
func TestSyncThrowKilledBeforeItsThrowLands(t *testing.T) {
	for _, shards := range []int{1, 2} {
		opts := DefaultOptions()
		opts.SyncThrowTo = true
		opts.Shards = shards
		rt := NewRT(opts)

		// The target starts masked on shard 0, so the thrower's
		// exception would wait in its pending queue until it unmasks.
		var got string
		body := Then(Unblock(ReturnUnit()), Lift(func() any { got = "clean"; return nil }))
		x := rt.spawn(Catch(body, func(e exc.Exception) Node {
			return Lift(func() any { got = "target raised " + e.ExceptionName(); return nil })
		}), "target", Masked, 0)

		// Step the thrower's throwTo by hand: it parks, and its
		// msgThrowTo waits in shard 0's mailbox.
		th := rt.newThread(ThrowTo(x.id, exc.Dyn{Tag: "withdrawn"}), "thrower", Unmasked)
		th.owner.Store(rt)
		rt.eng.table.put(th)
		rt.eng.live.Add(1)
		rt.step(th)
		if th.status != statusParked {
			t.Fatalf("shards=%d: thrower status %v, want parked", shards, th.status)
		}
		// The kill lands first.
		rt.applyMsg(shardMsg{kind: msgThrowTo, t: th, e: exc.ThreadKilled{}})

		// The sleep ends only once the clock may advance: the target
		// and the thrower have both finished.
		if _, err := rt.RunMain(Sleep(time.Millisecond)); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got != "clean" {
			t.Fatalf("shards=%d: %s", shards, got)
		}
		if _, killed := th.doneExc.(exc.ThreadKilled); th.status != statusDone || !killed {
			t.Fatalf("shards=%d: thrower status %v exc %v, want killed", shards, th.status, th.doneExc)
		}
		if st := rt.Stats(); st.PromisesCancelled != 1 || st.PromisesResolved != 0 {
			t.Fatalf("shards=%d: receipt resolved %d cancelled %d, want 0/1", shards, st.PromisesResolved, st.PromisesCancelled)
		}
	}
}

// TestReceiptClaimedBeforeLostDetach pins the one order in which a §9
// thrower returns before its exception is raised. At a parked
// interruptible target the receipt is claimed before the target is
// detached; when a committed wakeup has already popped the target from
// its wait queue, the detach loses. The thrower is released at the
// claim, and the target resumes with the value it was handed, runs on
// masked, and raises the exception at its next delivery point.
func TestReceiptClaimedBeforeLostDetach(t *testing.T) {
	opts := DefaultOptions()
	opts.SyncThrowTo = true
	rt := NewRT(opts)
	adopt := func(th *Thread) *Thread {
		th.owner.Store(rt)
		rt.eng.table.put(th)
		rt.eng.live.Add(1)
		return th
	}
	var log []string
	note := func(s string) Node { return Lift(func() any { log = append(log, s); return nil }) }
	mv := rt.newMVar(false, nil)
	body := Bind(TakeMVar(mv), func(v any) Node {
		return Then(note(fmt.Sprint("took ", v)), Then(Unblock(ReturnUnit()), note("clean")))
	})
	x := adopt(rt.newThread(Catch(body, func(e exc.Exception) Node { return note("raised " + e.ExceptionName()) }), "target", Masked))
	for i := 0; x.status != statusParked; i++ {
		if i == 10 {
			t.Fatalf("target did not park on the take")
		}
		rt.step(x)
	}
	// A put on another shard commits its value to the target: it pops
	// the taker, and the msgUnpark carrying the value is in flight.
	mv.mu.Lock()
	mv.takers.pop()
	mv.mu.Unlock()

	th := adopt(rt.newThread(ThrowTo(x.id, exc.Dyn{Tag: "late"}), "thrower", Unmasked))
	rt.step(th)
	rt.processMailbox() // the msgThrowTo lands ahead of the msgUnpark
	if th.status != statusRunnable || x.status != statusParked || x.PendingCount() != 1 || x.pending[0].receipt != nil {
		t.Fatalf("after the claim: thrower %v, target %v with %d pending; want the thrower released and the exception pending",
			th.status, x.status, x.PendingCount())
	}
	rt.applyMsg(shardMsg{kind: msgUnpark, t: x, v: "v"})
	if _, err := rt.RunMain(Sleep(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(log); got != "[took v raised Dyn:late]" || th.status != statusDone || th.doneExc != nil {
		t.Fatalf("log %s, thrower %v %v: want the take to complete, then the raise, and the thrower returned", got, th.status, th.doneExc)
	}
}

// TestReceiptClaimRacesWithdrawal races the two settlements of a §9
// receipt on two goroutines, as two shards run them: the target's
// shard claiming it at a delivery point, and the thrower's shard
// detaching the interrupted thrower. Exactly one may win in every
// round — a claim that lands after the detach removed the thrower, but
// before it cancelled the receipt, would deliver an exception whose
// throwTo raised. Run it under -race as well.
func TestReceiptClaimRacesWithdrawal(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two CPUs to race the settlements")
	}
	opts := DefaultOptions()
	opts.Shards = 2
	rt := NewRT(opts)
	thrShard, tgtShard := rt.eng.shards[0], rt.eng.shards[1]
	th := thrShard.newThread(ReturnUnit(), "thrower", Unmasked)
	th.owner.Store(thrShard)
	const rounds = 5000
	var claims, detaches int
	for i := 0; i < rounds; i++ {
		r := thrShard.newPromise("")
		r.mu.Lock()
		thrShard.park(th, parkInfo{kind: parkThrowTo, q: &r.waiters, mu: &r.mu, id: r.id, cancel: r})
		r.mu.Unlock()
		var ready atomic.Int32
		claimed := make(chan bool)
		go func() {
			ready.Add(1)
			for ready.Load() < 2 {
			}
			claimed <- tgtShard.claim(pendingExc{e: exc.ThreadKilled{}, receipt: r})
		}()
		ready.Add(1)
		for ready.Load() < 2 {
		}
		for j := 0; j < i%32; j++ { // stagger the start across rounds
			runtime.KeepAlive(j)
		}
		detached := thrShard.detachParked(th)
		c := <-claimed
		if c == detached {
			t.Fatalf("round %d: claimed %v, detached %v: exactly one settlement must win", i, c, detached)
		}
		if c {
			claims++
		} else {
			detaches++
		}
	}
	t.Logf("%d rounds: %d claimed, %d withdrawn", rounds, claims, detaches)
}

// TestMailboxSlotSize pins the size of the mailbox entry every send
// and drain copies by value, and of the pending-queue entry it carries.
func TestMailboxSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(shardMsg{}); n > 72 {
		t.Errorf("shardMsg is %d bytes, want <= 72", n)
	}
	if n := unsafe.Sizeof(pendingExc{}); n > 40 {
		t.Errorf("pendingExc is %d bytes, want <= 40", n)
	}
}
