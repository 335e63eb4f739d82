package chaos

import (
	"fmt"
	"sync"
	"time"

	"asyncexc/internal/actor"
	"asyncexc/internal/broker"
	"asyncexc/internal/core"
	"asyncexc/internal/supervise"
)

// ActorConfig sizes the actor/broker soak: one supervised topic actor
// fanning events out to supervised subscribers while a kill injector
// repeatedly shoots the topic mid-stream.
type ActorConfig struct {
	// Seed drives the scheduler (serial runs), the publisher's batch
	// sizes, and the injector's timing.
	Seed int64
	// Shards selects the runtime: 1 = serial deterministic scheduler,
	// >1 = really-parallel shards (virtual clock either way).
	Shards int
	// Subscribers is the fanout width.
	Subscribers int
	// Events is how many distinct sequence numbers are published.
	Events int
	// Kills is how many kill attempts the injector makes at the topic.
	Kills int
}

// DefaultActorConfig returns a moderate scenario.
func DefaultActorConfig(seed int64) ActorConfig {
	return ActorConfig{Seed: seed, Shards: 1, Subscribers: 3, Events: 60, Kills: 6}
}

// ActorReport is the outcome of one actor soak round.
type ActorReport struct {
	// Violations lists every broken invariant (empty = pass).
	Violations []string
	// Restarts counts supervisor restarts of the topic (and any
	// subscriber); KillsAttempted counts injector shots that found a
	// live incarnation to aim at.
	Restarts       uint64
	KillsAttempted uint64
	// Sends/Deliveries are the runtime's actor-mailbox counters after
	// quiescence (they must balance: nothing in flight, nothing lost).
	Sends, Deliveries uint64
}

// Failed reports whether any invariant broke.
func (r ActorReport) Failed() bool { return len(r.Violations) > 0 }

// RunActor executes the issue's acceptance scenario: a topic actor is
// killed mid-fanout, the supervisor restarts it, and across the whole
// run every subscriber must see every event exactly once — zero lost,
// zero duplicated. The guarantee rests on three mechanics under test:
// the Uninterruptible handler (a drained batch is fanned out
// atomically w.r.t. kills), the doorbell receive (a message leaves the
// queue only under the mailbox lock, so it survives a kill at the park
// or on the re-lock after a wake), and the restart-surviving mailbox
// (AsChild creates it outside Start).
func RunActor(cfg ActorConfig) (ActorReport, error) {
	var opts core.Options
	if cfg.Shards > 1 {
		opts = core.ParallelOptions(cfg.Shards)
	} else {
		opts = core.DefaultOptions()
		opts.RandomSched = true
		opts.Seed = cfg.Seed
		opts.TimeSlice = 3
	}
	sys := core.NewSystem(opts)
	asys := actor.NewSystem(nil)

	// Per-subscriber delivery counts, written from subscriber handler
	// threads (parallel shards), read at the end and by the quiesce
	// poll — locked.
	var mu sync.Mutex
	seen := make([]map[uint64]int, cfg.Subscribers)
	for i := range seen {
		seen[i] = map[uint64]int{}
	}
	allSeen := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < cfg.Subscribers; i++ {
			if len(seen[i]) < cfg.Events {
				return false
			}
		}
		return true
	}

	// The publisher and the injector draw from one stream and may run on
	// different shards.
	rng := newRand(cfg.Seed*2654435761 + 193)
	draw := func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		return rng.next(n)
	}
	var sup *supervise.Supervisor
	var rep ActorReport

	prog := core.Bind(broker.NewTopic(asys, "soak"), func(tp broker.Topic) core.IO[ActorReport] {
		spec := supervise.Spec{
			Name:      "broker",
			Strategy:  supervise.OneForOne,
			Intensity: supervise.Intensity{MaxRestarts: -1, Window: time.Second},
			Backoff:   supervise.Backoff{Initial: time.Millisecond, Max: 4 * time.Millisecond},
			Children:  []supervise.ChildSpec{tp.Spec},
		}
		mkSubs := core.Return(core.UnitValue)
		for i := 0; i < cfg.Subscribers; i++ {
			idx := i
			mkSubs = core.Then(mkSubs, core.Bind(
				broker.NewSubscriber(asys, fmt.Sprintf("s%d", idx), func(evs []broker.Event) core.IO[core.Unit] {
					return core.Lift(func() core.Unit {
						mu.Lock()
						for _, e := range evs {
							seen[idx][e.Seq]++
						}
						mu.Unlock()
						return core.UnitValue
					})
				}),
				func(sb broker.Subscriber) core.IO[core.Unit] {
					spec.Children = append(spec.Children, sb.Spec)
					return broker.Subscribe(tp.Ref, sb.Spec.ID, sb.Ref)
				}))
		}
		return core.Then(mkSubs, core.Delay(func() core.IO[ActorReport] {
			return supervise.WithSupervisor(spec, func(s *supervise.Supervisor) core.IO[ActorReport] {
				sup = s

				// Publisher: all Events in seed-sized batches.
				var publish func(next uint64) core.IO[core.Unit]
				publish = func(next uint64) core.IO[core.Unit] {
					if next > uint64(cfg.Events) {
						return core.Return(core.UnitValue)
					}
					n := uint64(1 + draw(7))
					if next+n > uint64(cfg.Events)+1 {
						n = uint64(cfg.Events) + 1 - next
					}
					evs := make([]broker.Event, 0, n)
					for s := next; s < next+n; s++ {
						evs = append(evs, broker.Event{Topic: "soak", Seq: s, Payload: "p"})
					}
					return core.Then(broker.Publish(tp.Ref, evs),
						core.Then(core.Sleep(time.Duration(draw(3))*time.Millisecond),
							core.Delay(func() core.IO[core.Unit] { return publish(next + n) })))
				}

				// Injector: Kills shots at the topic's live incarnation,
				// spread across the publish window so some land mid-fanout
				// and some at the parked receive.
				var inject func(k int) core.IO[core.Unit]
				inject = func(k int) core.IO[core.Unit] {
					if k >= cfg.Kills {
						return core.Return(core.UnitValue)
					}
					next := core.Then(core.Sleep(time.Duration(1+draw(4))*time.Millisecond),
						core.Delay(func() core.IO[core.Unit] { return inject(k + 1) }))
					tid, ok := s.ChildThreadID(tp.Spec.ID)
					if !ok {
						return next // mid-restart; try again next tick
					}
					rep.KillsAttempted++
					return core.Then(core.KillThread(tid), next)
				}

				// Quiesce: poll until every subscriber holds every seq
				// (bounded; a lost delivery shows up as a timeout here
				// and as a gap in the final audit).
				var settle func(tries int) core.IO[core.Unit]
				settle = func(tries int) core.IO[core.Unit] {
					return core.Delay(func() core.IO[core.Unit] {
						if allSeen() || tries <= 0 {
							return core.Return(core.UnitValue)
						}
						return core.Then(core.Sleep(time.Millisecond), settle(tries-1))
					})
				}

				return core.Bind(core.Fork(inject(0)), func(core.ThreadID) core.IO[ActorReport] {
					return core.Then(publish(1),
						core.Then(settle(10_000),
							core.Return(ActorReport{})))
				})
			})
		}))
	})

	rep2, e, err := core.RunSystem(sys, prog)
	rep.Violations = rep2.Violations
	if err != nil {
		return rep, err
	}
	if e != nil {
		return rep, fmt.Errorf("chaos: actor scenario main died: %v", e)
	}
	if sup != nil {
		rep.Restarts = sup.Metrics.Restarts.Load()
		if esc := sup.Metrics.Escalations.Load(); esc != 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf("supervisor escalated %d times", esc))
		}
	}

	// Exactly-once audit: every subscriber, every seq, count == 1.
	mu.Lock()
	for i := 0; i < cfg.Subscribers; i++ {
		for s := uint64(1); s <= uint64(cfg.Events); s++ {
			switch n := seen[i][s]; {
			case n == 0:
				rep.Violations = append(rep.Violations, fmt.Sprintf("sub %d lost seq %d", i, s))
			case n > 1:
				rep.Violations = append(rep.Violations, fmt.Sprintf("sub %d saw seq %d %d times", i, s, n))
			}
		}
	}
	mu.Unlock()

	// Mailbox audit: after quiescence nothing is in flight, so the
	// runtime's send and delivery counters must balance.
	st := sys.Stats()
	rep.Sends, rep.Deliveries = st.ActorSends, st.ActorDeliveries
	if rep.Sends != rep.Deliveries {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("mailbox imbalance: %d sends vs %d deliveries", rep.Sends, rep.Deliveries))
	}
	return rep, nil
}
