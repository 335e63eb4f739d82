package broker

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"asyncexc/internal/actor"
	"asyncexc/internal/core"
	"asyncexc/internal/supervise"
)

func TestEventCodecRoundTrip(t *testing.T) {
	for _, e := range []Event{
		{Topic: "t", Seq: 1, Payload: "p"},
		{Topic: "", Seq: 0, Payload: ""},
		{Topic: "orders", Seq: 1<<64 - 1, Payload: "a" + evSep + "b" + evSep},
		{Topic: "x", Seq: 42, Payload: evSep},
	} {
		wire := EventCodec.Encode(e)
		got, ok := EventCodec.Decode(wire)
		if !ok || got != e {
			t.Errorf("round trip of %+v: got %+v ok=%v (wire %q)", e, got, ok, wire)
		}
	}
}

func TestEventCodecRejectsMalformed(t *testing.T) {
	for _, wire := range []string{
		"",
		"no separator",
		"t" + evSep + "12",                   // no payload separator
		"t" + evSep + evSep + "p",            // empty seq
		"t" + evSep + "twelve" + evSep + "p", // not a number
		"t" + evSep + "-1" + evSep + "p",     // negative
		"t" + evSep + "18446744073709551616" + evSep, // overflows uint64
	} {
		if e, ok := EventCodec.Decode(wire); ok {
			t.Errorf("Decode(%q) accepted malformed input as %+v", wire, e)
		}
	}
}

// recorder collects what each subscriber's handler saw. Handlers may
// run on any shard, so it locks.
type recorder struct {
	mu   sync.Mutex
	seen map[string][]uint64
}

func newRecorder() *recorder { return &recorder{seen: map[string][]uint64{}} }

func (r *recorder) onBatch(id string) func([]Event) core.IO[core.Unit] {
	return func(evs []Event) core.IO[core.Unit] {
		return core.Lift(func() core.Unit {
			r.mu.Lock()
			for _, e := range evs {
				r.seen[id] = append(r.seen[id], e.Seq)
			}
			r.mu.Unlock()
			return core.UnitValue
		})
	}
}

func (r *recorder) get(id string) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.seen[id])
}

func publishSeqs(tp Topic, seqs ...uint64) core.IO[core.Unit] {
	evs := make([]Event, len(seqs))
	for i, s := range seqs {
		evs[i] = Event{Topic: "t", Seq: s}
	}
	return Publish(tp.Ref, evs)
}

// startChildren forks each spec's Start directly, without a supervisor.
func startChildren(specs ...supervise.ChildSpec) core.IO[core.Unit] {
	io := core.Return(core.UnitValue)
	for _, sp := range specs {
		io = core.Then(io, core.Void(core.Fork(sp.Start())))
	}
	return io
}

// TestFanoutFollowsSubscriptions checks that a publish reaches exactly
// the subscribers registered when the topic handles it, each in
// publish order.
func TestFanoutFollowsSubscriptions(t *testing.T) {
	rec := newRecorder()
	asys := actor.NewSystem(nil)
	step := core.Sleep(time.Millisecond) // lets the topic drain before the next command
	prog := core.Bind(NewTopic(asys, "order"), func(tp Topic) core.IO[core.Unit] {
		subs := make([]Subscriber, 0, 3)
		mk := core.Return(core.UnitValue)
		for _, id := range []string{"a", "b", "c"} {
			mk = core.Then(mk, core.Bind(NewSubscriber(asys, id, rec.onBatch(id)), func(s Subscriber) core.IO[core.Unit] {
				subs = append(subs, s)
				return core.Return(core.UnitValue)
			}))
		}
		return core.Then(mk, core.Delay(func() core.IO[core.Unit] {
			a, b, c := subs[0], subs[1], subs[2]
			return core.Seq(
				startChildren(tp.Spec, a.Spec, b.Spec, c.Spec),
				Subscribe(tp.Ref, "a", a.Ref), Subscribe(tp.Ref, "b", b.Ref),
				publishSeqs(tp, 1, 2), step,
				Unsubscribe(tp.Ref, "a"),
				publishSeqs(tp, 3), step,
				Subscribe(tp.Ref, "c", c.Ref),
				publishSeqs(tp, 4), publishSeqs(tp, 5, 6), step,
				Subscribe(tp.Ref, "a", a.Ref),
				publishSeqs(tp, 7), step,
			)
		}))
	})
	if _, e, err := core.Run(prog); e != nil || err != nil {
		t.Fatalf("run: exc=%v err=%v", e, err)
	}
	for id, want := range map[string][]uint64{
		"a": {1, 2, 7},
		"b": {1, 2, 3, 4, 5, 6, 7},
		"c": {4, 5, 6, 7},
	} {
		if got := rec.get(id); !slices.Equal(got, want) {
			t.Errorf("subscriber %s saw %v, want %v", id, got, want)
		}
	}
}

// TestFanoutBatchesAreIndependent checks that each subscriber's batch
// is its own copy: one handler overwriting its events changes neither
// another subscriber's batch nor the publisher's slice.
func TestFanoutBatchesAreIndependent(t *testing.T) {
	pub := []Event{{Topic: "t", Seq: 1, Payload: "x"}, {Topic: "t", Seq: 2, Payload: "y"}}
	var later []string
	asys := actor.NewSystem(nil)
	vandal := func(evs []Event) core.IO[core.Unit] {
		for i := range evs {
			evs[i].Payload = "vandalised"
		}
		return core.Return(core.UnitValue)
	}
	reader := func(evs []Event) core.IO[core.Unit] {
		// Read only after the vandal has had every chance to run.
		return core.Then(core.Sleep(time.Millisecond), core.Lift(func() core.Unit {
			for _, e := range evs {
				later = append(later, e.Payload)
			}
			return core.UnitValue
		}))
	}
	prog := core.Bind(NewTopic(asys, "copy"), func(tp Topic) core.IO[core.Unit] {
		return core.Bind(NewSubscriber(asys, "vandal", vandal), func(v Subscriber) core.IO[core.Unit] {
			return core.Bind(NewSubscriber(asys, "reader", reader), func(r Subscriber) core.IO[core.Unit] {
				return core.Seq(
					startChildren(tp.Spec, v.Spec, r.Spec),
					Subscribe(tp.Ref, "vandal", v.Ref), Subscribe(tp.Ref, "reader", r.Ref),
					core.Sleep(time.Millisecond),
					Publish(tp.Ref, pub),
					core.Sleep(5*time.Millisecond),
				)
			})
		})
	})
	if _, e, err := core.Run(prog); e != nil || err != nil {
		t.Fatalf("run: exc=%v err=%v", e, err)
	}
	if !slices.Equal(later, []string{"x", "y"}) {
		t.Errorf("reader saw %v, want [x y]", later)
	}
	if pub[0].Payload != "x" || pub[1].Payload != "y" {
		t.Errorf("publisher's slice changed: %+v", pub)
	}
}

// TestExactlyOnceAcrossTopicKills kills the topic repeatedly while a
// publisher streams events; the supervisor restarts it on the same
// mailbox. Every subscriber must still see every event exactly once,
// in publish order.
func TestExactlyOnceAcrossTopicKills(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			const events, kills = 300, 6
			opts := core.DefaultOptions()
			if shards > 1 {
				opts = core.ParallelOptions(shards)
			}
			rec := newRecorder()
			asys := actor.NewSystem(nil)
			ids := []string{"s0", "s1", "s2"}
			var restarts uint64
			prog := core.Bind(NewTopic(asys, "kill"), func(tp Topic) core.IO[core.Unit] {
				spec := supervise.Spec{
					Name:      "broker",
					Strategy:  supervise.OneForOne,
					Intensity: supervise.Intensity{MaxRestarts: -1, Window: time.Second},
					Backoff:   supervise.Backoff{Initial: time.Millisecond, Max: time.Millisecond},
					Children:  []supervise.ChildSpec{tp.Spec},
				}
				mk := core.Return(core.UnitValue)
				for _, id := range ids {
					mk = core.Then(mk, core.Bind(NewSubscriber(asys, id, rec.onBatch(id)), func(s Subscriber) core.IO[core.Unit] {
						spec.Children = append(spec.Children, s.Spec)
						return Subscribe(tp.Ref, id, s.Ref)
					}))
				}
				return core.Then(mk, core.Delay(func() core.IO[core.Unit] {
					return supervise.WithSupervisor(spec, func(sup *supervise.Supervisor) core.IO[core.Unit] {
						var publish func(next uint64) core.IO[core.Unit]
						publish = func(next uint64) core.IO[core.Unit] {
							if next > events {
								return core.Return(core.UnitValue)
							}
							n := min(1+next%5, events+1-next)
							seqs := make([]uint64, n)
							for i := range seqs {
								seqs[i] = next + uint64(i)
							}
							return core.Seq(publishSeqs(tp, seqs...), core.Sleep(100*time.Microsecond),
								core.Delay(func() core.IO[core.Unit] { return publish(next + n) }))
						}
						var kill func(k int) core.IO[core.Unit]
						kill = func(k int) core.IO[core.Unit] {
							if k == kills {
								return core.Return(core.UnitValue)
							}
							return core.Then(core.Sleep(1500*time.Microsecond), core.Delay(func() core.IO[core.Unit] {
								if tid, ok := sup.ChildThreadID(tp.Spec.ID); ok {
									return core.Then(core.KillThread(tid), kill(k+1))
								}
								return kill(k + 1)
							}))
						}
						var settle func(tries int) core.IO[core.Unit]
						settle = func(tries int) core.IO[core.Unit] {
							return core.Delay(func() core.IO[core.Unit] {
								done := true
								for _, id := range ids {
									done = done && len(rec.get(id)) >= events
								}
								if done || tries == 0 {
									restarts = sup.Metrics.Restarts.Load()
									return core.Return(core.UnitValue)
								}
								return core.Then(core.Sleep(time.Millisecond), settle(tries-1))
							})
						}
						return core.Seq(core.Void(core.Fork(kill(0))), publish(1), settle(5000))
					})
				}))
			})
			if _, e, err := core.RunSystem(core.NewSystem(opts), prog); e != nil || err != nil {
				t.Fatalf("run: exc=%v err=%v", e, err)
			}
			if restarts == 0 {
				t.Errorf("no kill landed: the topic never restarted")
			}
			want := make([]uint64, events)
			for i := range want {
				want[i] = uint64(i + 1)
			}
			for _, id := range ids {
				if got := rec.get(id); !slices.Equal(got, want) {
					t.Errorf("subscriber %s: %d deliveries, want each of 1..%d once in order; got %v", id, len(got), events, got)
				}
			}
		})
	}
}
