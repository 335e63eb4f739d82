package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"asyncexc/internal/exc"
)

// mailboxHarness builds a 2-shard engine (workers not started: RunMain
// is never called) so the test goroutine can drive send and
// processMailbox directly and deterministically.
func mailboxHarness() (e *engine, target *RT) {
	rt := NewRT(Options{TimeSlice: 50, Shards: 2})
	return rt.eng, rt.eng.shards[1]
}

// TestMailboxOrder checks messages are applied in exact send order
// across two drains, the second reusing the list the first emptied.
// msgAdopt is the probe because its application order is directly
// observable: each adopted thread lands on the target's run queue in
// apply order.
func TestMailboxOrder(t *testing.T) {
	e, target := mailboxHarness()
	total := 0
	sendBatch := func(n int) {
		for i := 0; i < n; i++ {
			th := &Thread{id: ThreadID(1000 + total), status: statusRunnable}
			e.send(target, shardMsg{kind: msgAdopt, t: th})
			total++
		}
	}
	sendBatch(40)
	target.processMailbox()
	sendBatch(20)
	target.processMailbox()

	if n := target.mailN.Load(); n != 0 {
		t.Fatalf("mailN %d after full drain, want 0", n)
	}
	if got := target.runq.Len(); got != total {
		t.Fatalf("run queue holds %d threads, want %d", got, total)
	}
	for i := 0; i < total; i++ {
		th := target.runq.popFront()
		if th.id != ThreadID(1000+i) {
			t.Fatalf("position %d: thread %d, want %d (send order broken)", i, th.id, 1000+i)
		}
	}
	// The consumer-side high-water sample must have seen the whole
	// first backlog.
	if hw := target.stats.MailboxDepth; hw < 40 {
		t.Fatalf("MailboxDepth high water %d, want >= 40", hw)
	}
}

// TestMailboxConcurrent races many producers against the draining
// consumer and checks per-sender FIFO and that nothing is lost. Sender
// identity rides in the thread id of msgAdopt messages, whose
// application is observable via the run queue.
func TestMailboxConcurrent(t *testing.T) {
	const producers = 4
	const perProducer = 500
	e, target := mailboxHarness()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				th := &Thread{id: ThreadID(p*perProducer + i), status: statusRunnable}
				e.send(target, shardMsg{kind: msgAdopt, t: th})
			}
		}(p)
	}
	// Single consumer: drain until everything has arrived.
	for target.runq.Len() < producers*perProducer {
		target.processMailbox()
	}
	wg.Wait()
	target.processMailbox()

	lastSeen := make([]int, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	n := target.runq.Len()
	for i := 0; i < n; i++ {
		th := target.runq.popFront()
		p, seq := int(th.id)/perProducer, int(th.id)%perProducer
		if seq <= lastSeen[p] {
			t.Fatalf("producer %d: seq %d applied after %d", p, seq, lastSeen[p])
		}
		lastSeen[p] = seq
	}
	for p, last := range lastSeen {
		if last != perProducer-1 {
			t.Fatalf("producer %d: lost messages past seq %d", p, last)
		}
	}
}

// TestMailboxSendNoAlloc: once the list and its spare have grown to
// the traffic, one send and its drain allocate nothing. A regression
// here (boxing the message, dropping the spare) would put a GC tax on
// every cross-shard throwTo.
func TestMailboxSendNoAlloc(t *testing.T) {
	e, target := mailboxHarness()
	msg := shardMsg{kind: msgAdopt, t: &Thread{status: statusRunnable}}
	avg := testing.AllocsPerRun(1000, func() {
		e.send(target, msg)
		target.processMailbox()
		target.runq.popFront()
	})
	if avg != 0 {
		t.Fatalf("mailbox send+drain allocates %.2f/op, want 0", avg)
	}
}

// TestMailboxExternalFlood: four goroutines make 25 000 External calls
// each into a running one-shard runtime, which drains shard 0's
// mailbox while they send. The mailbox has no bound, so nothing
// blocks; every callback runs exactly once, in per-sender order, and
// the backlog shows in Stats.MailboxDepth.
func TestMailboxExternalFlood(t *testing.T) {
	const producers, calls = 4, 25000
	rt := NewRT(Options{TimeSlice: 50, DetectDeadlock: true})
	// next[p] is the index of producer p's next callback; only
	// callbacks touch it, and RunMain's return publishes it to us.
	next := make([]int, producers)
	var ran, wrong atomic.Int64
	start := primNode{func(*RT, *Thread) (Node, bool) {
		for p := 0; p < producers; p++ {
			go func(p int) {
				for i := 0; i < calls; i++ {
					rt.External(func(*RT) {
						if next[p] != i {
							wrong.Add(1)
						}
						next[p] = i + 1
						ran.Add(1)
					})
				}
			}(p)
		}
		return unitRet, false
	}}
	var drained func() Node
	drained = func() Node {
		if ran.Load() == producers*calls {
			return Return(UnitValue)
		}
		return Bind(Yield(), func(any) Node { return drained() })
	}
	res, err := rt.RunMain(Bind(start, func(any) Node { return Delay(drained) }))
	if err != nil || res.Exc != nil {
		t.Fatalf("%v %v", err, res.Exc)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d callbacks ran out of producer order", n)
	}
	for p, n := range next {
		if n != calls {
			t.Fatalf("producer %d: %d of %d callbacks ran", p, n, calls)
		}
	}
	if hw := rt.Stats().MailboxDepth; hw == 0 {
		t.Fatalf("MailboxDepth high water 0 after %d External calls", producers*calls)
	}
	t.Logf("mailbox high water: %d", rt.Stats().MailboxDepth)
}

// TestMailboxStressFIFO is the seeded end-to-end stress for the
// cross-shard mailbox: a crowd of senders pinned to shard 0 fires
// sequence-tagged asynchronous exceptions at catchers pinned to shard
// 1, so the throwTo traffic (and the unpark acks flowing back) keeps
// both mailboxes busy throughout the run. The invariants checked are
// the ones the mailbox promises:
//
//   - per-sender FIFO: each catcher observes its sender's exceptions in
//     exact sequence order;
//   - no loss at shutdown: the final stop throw — enqueued while the
//     mailbox may hold a backlog — is still delivered, or the run
//     deadlocks and the detector fails the test with a diagnostic.
//
// RandomSched + seeds varies the interleaving; flow control (one ack
// per delivery) keeps exactly one exception in flight per pair, so a
// lost or reordered message cannot hide behind the §5 replacement rule
// (a second delivery overwriting an unwinding first).
func TestMailboxStressFIFO(t *testing.T) {
	const pairs = 16
	const rounds = 30
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	stop := exc.Dyn{Tag: "stop"}
	var sweepHW uint64

	for _, shards := range []int{2, 4} {
		for seed := 0; seed < seeds; seed++ {
			opts := Options{TimeSlice: 3, DetectDeadlock: true, Shards: shards,
				RandomSched: true, Seed: int64(seed)}
			rt := NewRT(opts)

			// received[i] is appended only by catcher i's handler, which
			// always runs on the shard goroutine owning that thread, one
			// delivery at a time; RunMain's return publishes it to us.
			received := make([][]string, pairs)

			mkCatcher := func(i int, never, ack, done *MVar) Node {
				one := Catch(
					Bind(Unblock(TakeMVar(never)), func(any) Node { return Return(false) }),
					func(e exc.Exception) Node {
						if e.Eq(stop) {
							return Bind(PutMVar(ack, UnitValue), func(any) Node { return Return(true) })
						}
						d, ok := e.(exc.Dyn)
						if !ok {
							d = exc.Dyn{Tag: fmt.Sprintf("unexpected:%v", e)}
						}
						received[i] = append(received[i], d.Tag)
						return Bind(PutMVar(ack, UnitValue), func(any) Node { return Return(false) })
					})
				var loop func() Node
				loop = func() Node {
					return Bind(one, func(v any) Node {
						if v.(bool) {
							return Return(UnitValue)
						}
						return Delay(loop)
					})
				}
				return Bind(Block(Delay(loop)), func(any) Node {
					return PutMVar(done, UnitValue)
				})
			}

			mkSender := func(i int, cid ThreadID, ack, done *MVar) Node {
				var round func(r int) Node
				round = func(r int) Node {
					if r == rounds {
						return Bind(ThrowTo(cid, stop), func(any) Node {
							return Bind(TakeMVar(ack), func(any) Node {
								return PutMVar(done, UnitValue)
							})
						})
					}
					return Bind(ThrowTo(cid, exc.Dyn{Tag: fmt.Sprintf("s%d-%d", i, r)}), func(any) Node {
						return Bind(TakeMVar(ack), func(any) Node {
							return Delay(func() Node { return round(r + 1) })
						})
					})
				}
				return round(0)
			}

			main := Bind(NewEmptyMVar(), func(d any) Node {
				done := d.(*MVar)
				var spawn func(i int) Node
				spawn = func(i int) Node {
					if i == pairs {
						// Await every catcher and every sender.
						wait := Return(UnitValue)
						for j := 0; j < 2*pairs; j++ {
							wait = Bind(wait, func(any) Node { return TakeMVar(done) })
						}
						return wait
					}
					return Bind(NewEmptyMVar(), func(n any) Node {
						never := n.(*MVar)
						return Bind(NewEmptyMVar(), func(a any) Node {
							ack := a.(*MVar)
							return Bind(ForkOn(1, mkCatcher(i, never, ack, done), fmt.Sprintf("catcher%d", i)), func(c any) Node {
								cid := c.(ThreadID)
								sender := mkSender(i, cid, ack, done)
								return Bind(ForkOn(0, sender, fmt.Sprintf("sender%d", i)), func(any) Node {
									return spawn(i + 1)
								})
							})
						})
					})
				}
				return spawn(0)
			})

			res, err := rt.RunMain(main)
			if err != nil || res.Exc != nil {
				t.Fatalf("shards=%d seed=%d: %v %v", shards, seed, err, res.Exc)
			}
			for i := 0; i < pairs; i++ {
				if len(received[i]) != rounds {
					t.Fatalf("shards=%d seed=%d catcher %d: saw %d deliveries, want %d: %v",
						shards, seed, i, len(received[i]), rounds, received[i])
				}
				for r, tag := range received[i] {
					if want := fmt.Sprintf("s%d-%d", i, r); tag != want {
						t.Fatalf("shards=%d seed=%d catcher %d: delivery %d is %q, want %q (per-sender FIFO broken)",
							shards, seed, i, r, tag, want)
					}
				}
			}
			st := rt.Stats()
			if st.CrossShardThrowTo == 0 {
				t.Fatalf("shards=%d seed=%d: no cross-shard throwTo exercised", shards, seed)
			}
			if st.MailboxDepth == 0 {
				t.Fatalf("shards=%d seed=%d: MailboxDepth high water 0 after %d cross-shard throwTos",
					shards, seed, st.CrossShardThrowTo)
			}
			if st.MailboxDepth > sweepHW {
				sweepHW = st.MailboxDepth
			}
		}
	}
	t.Logf("sweep mailbox high water: %d", sweepHW)
}
