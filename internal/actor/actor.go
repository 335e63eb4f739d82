// Package actor is a typed actor layer over the asynchronous-exception
// machinery: mailboxes with selective receive that park at the paper's
// delivery points, gen_server-style Call/Cast with resilience
// deadlines, a name registry unified with cluster.WhereIs, and actors
// packaged as supervise.ChildSpec children so restart policies,
// monitors and cross-node placement come for free.
//
// The design follows "An Exceptional Actor System" (Functional Pearl):
// the paper's throwTo/mask/bracket primitives are the delivery
// substrate. Locally a message goes into an MVar-built mailbox whose
// receive parks on a real takeMVar — interruptible only while it
// waits, so a kill lands exactly where the paper's §5.3 rule says it
// may. Remotely a message literally rides an asynchronous
// exception (cluster.MessageExc over cluster.ThrowTo): it unwinds the
// target actor's parked receive, which catches it and feeds the
// payload back into the mailbox. No new scheduler primitives exist —
// locally a send rings an MVar doorbell and the woken receiver takes
// the message from the queue itself; everywhere else delivery uses
// the existing cross-shard / cross-node throwTo paths.
package actor

import (
	"sync"

	"asyncexc/internal/cluster"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/supervise"
)

// LocalNode is the NodeID refs carry when the System has no cluster
// node attached.
const LocalNode cluster.NodeID = "local"

// System is the per-runtime actor registry: names to live actors,
// plus the optional cluster node that makes those names visible to
// peers (cluster.WhereIs) and remote messages deliverable.
type System struct {
	node   *cluster.Node
	nodeID cluster.NodeID

	mu    sync.Mutex
	names map[string]regEntry
}

// regEntry is one live named actor: its current incarnation's thread
// and its (incarnation-surviving) mailbox, held untyped.
type regEntry struct {
	tid core.ThreadID
	mb  any
}

// NewSystem creates a registry. node may be nil for a purely local
// system; with a node attached, named actors are exported so peers
// resolve them with cluster.WhereIs and deliver with remote Send.
func NewSystem(node *cluster.Node) *System {
	id := LocalNode
	if node != nil {
		id = node.ID()
	}
	return &System{node: node, nodeID: id, names: map[string]regEntry{}}
}

// NodeID returns the id refs minted by this system carry.
func (s *System) NodeID() cluster.NodeID { return s.nodeID }

// Node returns the attached cluster node (nil for local systems).
func (s *System) Node() *cluster.Node { return s.node }

func (s *System) register(name string, tid core.ThreadID, mb any) {
	if name == "" {
		return
	}
	s.mu.Lock()
	s.names[name] = regEntry{tid: tid, mb: mb}
	s.mu.Unlock()
}

func (s *System) unregister(name string, tid core.ThreadID) {
	if name == "" {
		return
	}
	s.mu.Lock()
	if e, ok := s.names[name]; ok && e.tid == tid {
		delete(s.names, name)
	}
	s.mu.Unlock()
}

// Ref is the one address type local and remote actors share: a
// cluster.RemoteRef plus, for local actors, a direct pointer to the
// mailbox (the fast path — and the part that survives supervisor
// restarts, which re-incarnate the thread but keep the mailbox).
type Ref[M any] struct {
	// Addr locates the actor in the cluster: hosting node + the
	// thread id of the incarnation the ref was minted against.
	Addr cluster.RemoteRef
	// Name is the actor's registered name ("" for anonymous actors).
	Name string

	mb    *Mailbox[M]
	sys   *System
	codec *Codec[M]
}

// Local reports whether the ref delivers without touching the wire.
func (r Ref[M]) Local() bool { return r.mb != nil }

// Send enqueues m into the actor's mailbox — Erlang's "!", the
// gen_server cast. Local refs hand straight to the mailbox; remote
// refs ride the message on an asynchronous exception via
// cluster.ThrowTo (at-most-once, like any remote throw). Send never
// waits for the receiver.
func (r Ref[M]) Send(m M) core.IO[core.Unit] {
	if r.mb != nil {
		return r.mb.Send(m)
	}
	return sendRemote(r, m)
}

// Cast is Send under its gen_server name.
func (r Ref[M]) Cast(m M) core.IO[core.Unit] { return r.Send(m) }

// SendAll enqueues a batch in one mailbox critical section (local
// refs only; remote refs send message-by-message).
func (r Ref[M]) SendAll(ms []M) core.IO[core.Unit] {
	if r.mb != nil {
		return r.mb.SendAll(ms)
	}
	var io core.IO[core.Unit] = core.Return(core.UnitValue)
	for i := len(ms) - 1; i >= 0; i-- {
		io = core.Then(sendRemote(r, ms[i]), io)
	}
	return io
}

// Mailbox exposes a local ref's mailbox (nil for remote refs); custom
// receive loops use it for ReceiveWhere.
func (r Ref[M]) Mailbox() *Mailbox[M] { return r.mb }

// ---------------------------------------------------------------------
// Behaviors and spawning
// ---------------------------------------------------------------------

// Def describes a typed actor behavior. Exactly one of OnMessage /
// OnBatch must be set.
type Def[M any] struct {
	// Name registers the actor (System registry and, with a cluster
	// node attached, the cluster export registry — peers then resolve
	// it with WhereIs and monitor it). "" spawns anonymously.
	Name string
	// OnMessage handles one message at a time.
	OnMessage func(M) core.IO[core.Unit]
	// OnBatch, when set instead, receives every drained message in
	// arrival order — the amortized path for hot actors. The slice is
	// the mailbox's own buffer, valid until the actor's next receive:
	// a handler that keeps messages past its return copies them.
	OnBatch func([]M) core.IO[core.Unit]
	// Uninterruptible runs the handler under BlockUninterruptible,
	// so not even its interruptible waits admit a kill: the handler
	// becomes atomic with respect to asynchronous exceptions, which
	// then land only at the receive point. The broker's topic fanout
	// uses this for its zero-lost-or-duplicated guarantee. Handlers
	// that may genuinely block should leave it false.
	Uninterruptible bool
	// Codec enables remote delivery to this actor (and is stamped on
	// refs minted for it).
	Codec *Codec[M]
}

func (d Def[M]) label() string {
	if d.Name != "" {
		return d.Name
	}
	return "anon"
}

// Spawn creates the mailbox, forks the actor loop, and returns its
// ref. The fork is masked, and the parent registers the name eagerly
// with the freshly-forked tid, so by the time Spawn returns the actor
// is already Resolve-able — there is no window where the child hasn't
// run its own registration yet (the child's register is idempotent
// here and matters for supervisor re-incarnations, whose tid the
// parent never sees).
func Spawn[M any](sys *System, def Def[M]) core.IO[Ref[M]] {
	return core.Bind(NewMailbox[M](def.label()), func(mb *Mailbox[M]) core.IO[Ref[M]] {
		return core.Block(core.Bind(
			core.ForkNamed(runActor(sys, def, mb), "actor:"+def.label()),
			func(tid core.ThreadID) core.IO[Ref[M]] {
				sys.register(def.Name, tid, mb)
				return core.Return(mintRef(sys, def, mb, tid))
			}))
	})
}

// AsChild packages an actor as a supervise.ChildSpec and returns the
// ref alongside it. The mailbox is created here, outside the Start
// closure, so it survives restarts: a supervisor re-incarnates the
// thread, the queue and every ref keep working, and messages queued
// across the crash are neither lost nor duplicated.
func AsChild[M any](sys *System, def Def[M], restart supervise.RestartPolicy) core.IO[core.Pair[Ref[M], supervise.ChildSpec]] {
	return core.Bind(NewMailbox[M](def.label()), func(mb *Mailbox[M]) core.IO[core.Pair[Ref[M], supervise.ChildSpec]] {
		ref := mintRef(sys, def, mb, 0)
		spec := supervise.ChildSpec{
			ID:      def.label(),
			Restart: restart,
			Start:   func() core.IO[core.Unit] { return runActor(sys, def, mb) },
		}
		return core.Return(core.MkPair(ref, spec))
	})
}

func mintRef[M any](sys *System, def Def[M], mb *Mailbox[M], tid core.ThreadID) Ref[M] {
	return Ref[M]{
		Addr:  cluster.RemoteRef{Node: sys.nodeID, TID: tid},
		Name:  def.Name,
		mb:    mb,
		sys:   sys,
		codec: def.Codec,
	}
}

// runActor is one incarnation's body: register, loop, unregister.
// With a cluster node attached and a name set, the body is wrapped by
// cluster.ExportedBody so the incarnation is WhereIs-resolvable and
// monitorable from peers, and its death notifies remote watchers.
func runActor[M any](sys *System, def Def[M], mb *Mailbox[M]) core.IO[core.Unit] {
	loop := func() core.IO[core.Unit] { return actorLoop(sys, def, mb) }
	// The whole incarnation runs under Block: registration, the loop
	// (whose SafePoint and receive are the delivery points) and
	// the Finally'd unregistration. However the body was forked —
	// supervisor child, cluster export, plain Spawn — no unmasked
	// window exists around the registry bookkeeping.
	body := core.Block(core.Bind(core.MyThreadID(), func(me core.ThreadID) core.IO[core.Unit] {
		enter := core.Lift(func() core.Unit { sys.register(def.Name, me, mb); return core.UnitValue })
		exit := core.Lift(func() core.Unit { sys.unregister(def.Name, me); return core.UnitValue })
		return core.Then(enter, core.Finally(core.Delay(loop), exit))
	}))
	if sys.node != nil && def.Name != "" {
		return cluster.ExportedBody(sys.node, def.Name, func() core.IO[core.Unit] { return body })
	}
	return body
}

// actorLoop is the receive loop. The whole loop runs under Block, so
// the only interruption points are the SafePoint at each cycle's top
// (a busy mailbox never parks, and a kill must still land somewhere),
// the parked receive itself, and the receive's take of the mailbox
// lock when another thread holds it (before parking or after a wake).
// No message has left the queue at any of them, so a message is
// either fully handled or still queued, never half-handled, and no
// unmasked gap exists between iterations. A remote message arrives as
// a MessageExc unwinding one of those points; the per-cycle catch
// decodes it back into the mailbox and the loop continues. Everything
// else (kills, Shutdown) propagates and becomes the actor's exit.
func actorLoop[M any](sys *System, def Def[M], mb *Mailbox[M]) core.IO[core.Unit] {
	handle := handler(def, mb)
	cycle := core.Then(core.SafePoint(), core.Delay(handle))
	guarded := core.Catch(cycle, func(e core.Exception) core.IO[core.Unit] {
		if me, ok := e.(cluster.MessageExc); ok {
			return acceptRemote(def, mb, me)
		}
		return core.Throw[core.Unit](e)
	})
	return core.Block(core.Forever(guarded))
}

// handler builds one receive-and-handle step from the Def.
func handler[M any](def Def[M], mb *Mailbox[M]) func() core.IO[core.Unit] {
	mask := func(m core.IO[core.Unit]) core.IO[core.Unit] {
		if def.Uninterruptible {
			return core.BlockUninterruptible(m)
		}
		return m
	}
	if def.OnBatch != nil {
		return func() core.IO[core.Unit] {
			return core.Bind(mb.receiveAll(), func(b core.Pair[[]M, uint64]) core.IO[core.Unit] {
				return mask(core.Then(def.OnBatch(b.Fst), noteHandle(mb.name, uint64(len(b.Fst)), b.Snd)))
			})
		}
	}
	return func() core.IO[core.Unit] {
		return core.Bind(mb.receiveOne(nil), func(m core.Pair[M, uint64]) core.IO[core.Unit] {
			return mask(core.Then(def.OnMessage(m.Fst), noteHandle(mb.name, 1, m.Snd)))
		})
	}
}

// acceptRemote feeds a wire-delivered message back into the mailbox.
// An actor without a codec cannot accept remote mail: the exception
// propagates and the supervisor (if any) sees a crash — loud, not a
// silent drop.
func acceptRemote[M any](def Def[M], mb *Mailbox[M], me cluster.MessageExc) core.IO[core.Unit] {
	if def.Codec == nil {
		return core.Throw[core.Unit](exc.ErrorCall{Msg: "actor " + def.label() + ": remote message but no codec"})
	}
	m, ok := def.Codec.Decode(me.Payload)
	if !ok {
		return core.Throw[core.Unit](exc.ErrorCall{Msg: "actor " + def.label() + ": undecodable remote message"})
	}
	return mb.Send(m)
}

// ---------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------

// Resolve looks a name up: locally in the System registry when peer
// is this node (or empty), otherwise on the peer via cluster.WhereIs
// — one address type either way. Remote refs need the codec to send.
func Resolve[M any](sys *System, peer cluster.NodeID, name string, codec *Codec[M]) core.IO[core.Maybe[Ref[M]]] {
	if peer == "" || peer == sys.nodeID {
		return core.Lift(func() core.Maybe[Ref[M]] {
			sys.mu.Lock()
			e, ok := sys.names[name]
			sys.mu.Unlock()
			if !ok {
				return core.Nothing[Ref[M]]()
			}
			mb, ok := e.mb.(*Mailbox[M])
			if !ok {
				return core.Nothing[Ref[M]]()
			}
			return core.Just(Ref[M]{
				Addr:  cluster.RemoteRef{Node: sys.nodeID, TID: e.tid},
				Name:  name,
				mb:    mb,
				sys:   sys,
				codec: codec,
			})
		})
	}
	if sys.node == nil {
		return core.Throw[core.Maybe[Ref[M]]](cluster.NotConnectedError{Node: peer})
	}
	return core.Map(cluster.WhereIs(sys.node, peer, name), func(m core.Maybe[cluster.RemoteRef]) core.Maybe[Ref[M]] {
		if !m.IsJust {
			return core.Nothing[Ref[M]]()
		}
		return core.Just(Ref[M]{Addr: m.Value, Name: name, sys: sys, codec: codec})
	})
}
