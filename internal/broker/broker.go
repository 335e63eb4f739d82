// Package broker is the issue's pub-sub workload built on
// internal/actor: topics are actors, subscribers are supervised
// children, and every delivery travels the same mailbox / remote
// throwTo paths as any other actor message. The package is shared by
// cmd/axbroker (the driver binary), the A1 benchmark, and the chaos
// soak — same topic code under all three.
//
// Delivery guarantee: the topic's handler runs Uninterruptible, so a
// publish batch is fanned out atomically with respect to asynchronous
// exceptions. A kill aimed at the topic lands only at its receive
// point — a batch is either fully fanned out to every subscriber or
// still queued in the topic's (restart-surviving) mailbox. Combined
// with a Permanent supervisor child spec this gives the acceptance
// property: kill a topic mid-stream and no subscriber delivery is
// lost or duplicated.
package broker

import (
	"slices"
	"strconv"
	"strings"

	"asyncexc/internal/actor"
	"asyncexc/internal/core"
	"asyncexc/internal/supervise"
)

// Event is one published message as a subscriber sees it.
type Event struct {
	Topic   string
	Seq     uint64
	Payload string
}

// evSep separates Event fields on the wire. Topic names must not
// contain it; payloads may (only the first two separators split).
const evSep = "\x1e"

// EventCodec lets events cross node boundaries (subscriber actors on
// other nodes receive exactly the same Event type).
var EventCodec = &actor.Codec[Event]{
	Encode: func(e Event) string {
		return e.Topic + evSep + strconv.FormatUint(e.Seq, 10) + evSep + e.Payload
	},
	Decode: func(s string) (Event, bool) {
		i := strings.Index(s, evSep)
		if i < 0 {
			return Event{}, false
		}
		rest := s[i+1:]
		j := strings.Index(rest, evSep)
		if j < 0 {
			return Event{}, false
		}
		seq, err := strconv.ParseUint(rest[:j], 10, 64)
		if err != nil {
			return Event{}, false
		}
		return Event{Topic: s[:i], Seq: seq, Payload: rest[j+1:]}, true
	},
}

// Cmd is a topic actor's message: a publish batch and/or a
// subscription change. Zero-valued fields are ignored.
type Cmd struct {
	// Events to fan out to every current subscriber, in order.
	Events []Event
	// SubID + Sub adds (or replaces) a subscriber.
	SubID string
	Sub   actor.Ref[Event]
	// Unsub removes a subscriber by id.
	Unsub string
}

// Publish sends a batch of events to the topic.
func Publish(t actor.Ref[Cmd], evs []Event) core.IO[core.Unit] {
	return t.Send(Cmd{Events: evs})
}

// Subscribe registers ref (local or remote) under id.
func Subscribe(t actor.Ref[Cmd], id string, ref actor.Ref[Event]) core.IO[core.Unit] {
	return t.Send(Cmd{SubID: id, Sub: ref})
}

// Unsubscribe removes the subscriber registered under id.
func Unsubscribe(t actor.Ref[Cmd], id string) core.IO[core.Unit] {
	return t.Send(Cmd{Unsub: id})
}

// Topic is a topic actor packaged for supervision: its ref (valid
// across restarts — the mailbox is the identity) and the child spec
// to hang under a supervisor.
type Topic struct {
	Ref  actor.Ref[Cmd]
	Spec supervise.ChildSpec
}

// NewTopic builds the topic actor. Subscriber state lives in the
// behavior closure, created once here: a supervisor restart
// re-incarnates the thread but keeps both the mailbox and the
// subscriber table, so replaying resumes exactly where the last
// incarnation stopped. The fanout's event join lives there too,
// reused across batches.
func NewTopic(sys *actor.System, name string) core.IO[Topic] {
	subs := map[string]actor.Ref[Event]{} // topic-thread-only; no lock
	order := []string{}                   // deterministic fanout order
	var evs []Event                       // the batch's events, joined
	def := actor.Def[Cmd]{
		Name:            "topic/" + name,
		Uninterruptible: true,
		OnBatch: func(cmds []Cmd) core.IO[core.Unit] {
			// Subscription changes apply in arrival order first, then
			// one fanout per subscriber for the whole batch's events —
			// a single mailbox critical section per subscriber. The
			// join is reused across batches: SendAll copies it, and the
			// uninterruptible fanout finishes before the next batch.
			n := 0
			for _, c := range cmds {
				n += len(c.Events)
			}
			clear(evs)
			evs = slices.Grow(evs[:0], n)
			for _, c := range cmds {
				if c.SubID != "" {
					if _, ok := subs[c.SubID]; !ok {
						order = append(order, c.SubID)
					}
					subs[c.SubID] = c.Sub
				}
				if c.Unsub != "" {
					if _, ok := subs[c.Unsub]; ok {
						delete(subs, c.Unsub)
						for i, id := range order {
							if id == c.Unsub {
								order = append(order[:i], order[i+1:]...)
								break
							}
						}
					}
				}
				evs = append(evs, c.Events...)
			}
			if len(evs) == 0 {
				return core.Return(core.UnitValue)
			}
			io := core.Return(core.UnitValue)
			for i := len(order) - 1; i >= 0; i-- {
				ref := subs[order[i]]
				io = core.Then(ref.SendAll(evs), io)
			}
			return io
		},
	}
	return core.Map(
		actor.AsChild(sys, def, supervise.Permanent),
		func(p core.Pair[actor.Ref[Cmd], supervise.ChildSpec]) Topic {
			return Topic{Ref: p.Fst, Spec: p.Snd}
		})
}

// Subscriber is a supervised sink actor: it applies onBatch to every
// drained batch, uninterruptibly, so its own bookkeeping is atomic
// against kills too.
type Subscriber struct {
	Ref  actor.Ref[Event]
	Spec supervise.ChildSpec
}

// NewSubscriber builds a subscriber actor named id. The codec is
// attached so the ref works from remote nodes.
func NewSubscriber(sys *actor.System, id string, onBatch func([]Event) core.IO[core.Unit]) core.IO[Subscriber] {
	def := actor.Def[Event]{
		Name:            "sub/" + id,
		Uninterruptible: true,
		Codec:           EventCodec,
		OnBatch:         onBatch,
	}
	return core.Map(
		actor.AsChild(sys, def, supervise.Permanent),
		func(p core.Pair[actor.Ref[Event], supervise.ChildSpec]) Subscriber {
			return Subscriber{Ref: p.Fst, Spec: p.Snd}
		})
}
