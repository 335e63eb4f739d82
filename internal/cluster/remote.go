package cluster

import (
	"net"

	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/iomgr"
	"asyncexc/internal/resilience"
	"asyncexc/internal/sched"
	"asyncexc/internal/supervise"
)

// DownReason classifies a cluster Down notification. The first three
// mirror supervise.ExitReason for a watched thread's real death; the
// last two are cluster-only outcomes the local design cannot have.
type DownReason uint8

const (
	// DownExited: the thread ran to completion.
	DownExited DownReason = iota
	// DownKilled: the thread died to ThreadKilled or Shutdown.
	DownKilled
	// DownCrashed: the thread died to any other uncaught exception.
	DownCrashed
	// DownNoProc: the monitored thread did not exist (or had already
	// died and left the registry) when the monitor arrived.
	DownNoProc
	// DownNodeDown: the link to the hosting node died; the thread's
	// real fate is unknowable from here.
	DownNodeDown
)

func (r DownReason) String() string {
	switch r {
	case DownExited:
		return "exited"
	case DownKilled:
		return "killed"
	case DownCrashed:
		return "crashed"
	case DownNoProc:
		return "noProc"
	default:
		return "nodeDown"
	}
}

// Down is a cluster death notification: which ref, how, and — for
// Killed/Crashed — the exception (decoded from the wire; NodeDown
// carries a NodeDownError).
type Down struct {
	// Ref is the watched thread.
	Ref RemoteRef
	// Reason classifies the notification.
	Reason DownReason
	// Exc is the terminal exception when one is known.
	Exc exc.Exception
}

// Monitored is a live death-watch handle.
type Monitored struct {
	// ID is the node-unique monitor id (used by Demonitor).
	ID uint64
	// Ref is the watched thread.
	Ref RemoteRef
	// Box receives exactly one Down.
	Box core.MVar[Down]
}

// Await waits for the Down notification.
func (m Monitored) Await() core.IO[Down] { return core.Take(m.Box) }

// ---------------------------------------------------------------------
// Connecting
// ---------------------------------------------------------------------

// Connect dials a peer, runs the hello handshake and installs the
// link, returning the peer's NodeID. The §7 bracket discipline covers
// the socket: acquired interruptibly, and if the handshake (run under
// BlockUninterruptible, since half a handshake is not a state we can
// unwind to) fails, the socket is closed on the way out.
func Connect(n *Node, addr string) core.IO[NodeID] {
	dial := iomgr.Do("cluster.dial", func() (net.Conn, error) { return n.tr.Dial(addr) })
	return core.BracketOnError(dial,
		func(conn net.Conn) core.IO[NodeID] {
			return core.BlockUninterruptible(iomgr.Do("cluster.handshake", func() (NodeID, error) {
				return n.clientHandshake(conn)
			}))
		},
		func(conn net.Conn) core.IO[core.Unit] {
			return iomgr.Do("cluster.close", func() (core.Unit, error) {
				conn.Close() //nolint:errcheck
				return core.UnitValue, nil
			})
		})
}

// ConnectRetry is Connect under a resilience retry policy, each
// attempt guarded by the per-link circuit breaker (nil breaker means
// unguarded). The breaker keeps a flapping peer from being hammered:
// once it opens, attempts fast-fail until the cooldown probe.
func ConnectRetry(n *Node, addr string, p resilience.RetryPolicy, b *resilience.Breaker) core.IO[NodeID] {
	op := func(int) core.IO[NodeID] {
		if b == nil {
			return Connect(n, addr)
		}
		return resilience.Guard(b, Connect(n, addr))
	}
	return resilience.Retry(p, resilience.NoDeadline(), op)
}

// ---------------------------------------------------------------------
// Remote throwTo / kill
// ---------------------------------------------------------------------

// ThrowTo is the paper's throwTo lifted across the cluster: it places
// e in flight against ref. For a local ref it is exactly core.ThrowTo
// (exactly-once, the paper's guarantee). For a remote ref the frame
// is sent at-most-once — no retry, no buffering for dead links — and
// the call throws NotConnectedError when no link to the peer exists,
// or ErrLinkDown when a link exists but has already been torn down
// (previously the frame was silently dropped; a dead link left behind
// by an exhausted ConnectRetry now fails sends loudly).
//
// Unlike local throwTo (§9's synchronous variant), remote ThrowTo
// never waits for delivery: the network makes "delivered" unknowable,
// so the API does not pretend. Monitor is the confirmation channel.
func ThrowTo(n *Node, ref RemoteRef, e exc.Exception) core.IO[core.Unit] {
	if ref.Node == n.id {
		return core.ThrowTo(ref.TID, e)
	}
	return core.Bind(
		core.FromNode[uint64](sched.NoteRemoteThrowTo(string(ref.Node), e)),
		func(span uint64) core.IO[core.Unit] {
			return core.Delay(func() core.IO[core.Unit] {
				l := n.lookupLink(ref.Node)
				if l == nil {
					return core.Throw[core.Unit](NotConnectedError{Node: ref.Node})
				}
				if !l.enqueue(frame{kind: fThrowTo, tid: uint64(int64(ref.TID)), span: span, exc: e}) {
					return core.Throw[core.Unit](ErrLinkDown{Node: ref.Node})
				}
				return core.Return(core.UnitValue)
			})
		})
}

// Kill is ThrowTo with ThreadKilled, mirroring core.KillThread.
func Kill(n *Node, ref RemoteRef) core.IO[core.Unit] {
	return ThrowTo(n, ref, exc.ThreadKilled{})
}

// ---------------------------------------------------------------------
// Monitors
// ---------------------------------------------------------------------

// Monitor registers a death-watch on ref and returns the handle. The
// Box receives exactly one Down: the thread's real exit, NoProc if it
// was already gone, or NodeDown if the link to its host dies first.
// The watch is registered before the monitor frame leaves the node,
// so the Down for an immediately-dying target cannot be lost.
//
// Only exported threads (SpawnRemote / SpawnRegistered) are
// monitorable; a raw ThreadID that was never exported answers NoProc.
func Monitor(n *Node, ref RemoteRef) core.IO[Monitored] {
	return core.Bind(core.NewEmptyMVar[Down](), func(box core.MVar[Down]) core.IO[Monitored] {
		return core.Bind(core.Lift(func() reg { return n.registerMonitor(ref, box) }),
			func(r reg) core.IO[Monitored] {
				m := Monitored{ID: r.id, Ref: ref, Box: box}
				if r.immediate == downPending {
					return core.Return(m)
				}
				return core.Then(
					core.Put(box, Down{Ref: ref, Reason: r.immediate, Exc: immediateExc(ref, r.immediate)}),
					core.Return(m))
			})
	})
}

// downPending is the sentinel registerMonitor returns when the watch
// was installed and the Down will arrive later.
const downPending DownReason = 0xFF

func immediateExc(ref RemoteRef, r DownReason) exc.Exception {
	if r == DownNodeDown {
		return NodeDownError{Node: ref.Node}
	}
	return nil
}

// reg is the result of registerMonitor: the monitor id and either
// downPending or the reason for an immediate synthetic Down.
type reg struct {
	id        uint64
	immediate DownReason
}

// registerMonitor installs the watch Go-side.
func (n *Node) registerMonitor(ref RemoteRef, box core.MVar[Down]) reg {
	if ref.Node == n.id {
		n.mu.Lock()
		defer n.mu.Unlock()
		ex := n.byTID[ref.TID]
		if ex == nil {
			return reg{immediate: DownNoProc}
		}
		n.nextRef++
		ex.watchers = append(ex.watchers, watcher{peer: "", ref: n.nextRef, box: box})
		return reg{id: n.nextRef, immediate: downPending}
	}
	n.mu.Lock()
	l := n.links[ref.Node]
	if l == nil {
		n.mu.Unlock()
		return reg{immediate: DownNodeDown}
	}
	n.nextRef++
	id := n.nextRef
	n.monitors[id] = &remoteMonitor{peer: ref.Node, ref: ref, box: box}
	n.mu.Unlock()
	if !l.enqueue(frame{kind: fMonitor, ref: id, tid: uint64(int64(ref.TID))}) {
		// Link died between lookup and enqueue; linkDown will (or did)
		// sweep the monitors map and synthesize the NodeDown.
		return reg{id: id, immediate: downPending}
	}
	return reg{id: id, immediate: downPending}
}

// MonitorInto forwards ref's eventual Down into a shared channel, the
// many-watches-one-inbox shape a supervisor loop wants.
func MonitorInto(n *Node, ref RemoteRef, ch conc.Chan[Down]) core.IO[core.Unit] {
	return core.Bind(Monitor(n, ref), func(m Monitored) core.IO[core.Unit] {
		fwd := core.Bind(m.Await(), func(d Down) core.IO[core.Unit] { return ch.Write(d) })
		return core.Void(core.ForkNamed(fwd, "cluster:monitorInto"))
	})
}

// ---------------------------------------------------------------------
// Registry: whereis, spawn
// ---------------------------------------------------------------------

// reqAnswer is the outcome a pendingReq completes with.
type reqAnswer struct {
	v   any
	err error
}

// request waits, interruptibly, until the peer answers or the link
// dies. The wait is an iomgr operation: a goroutine blocks on the
// answer, and interrupting the caller cancels it, which retracts the
// pending entry (a late answer is dropped) and releases the goroutine.
func request(n *Node, peer NodeID, name string, mk func(ref uint64) frame) core.IO[any] {
	return core.Delay(func() core.IO[any] {
		l := n.lookupLink(peer)
		if l == nil {
			return core.Throw[any](NotConnectedError{Node: peer})
		}
		id := n.refID()
		answer := make(chan reqAnswer, 1)
		// Only the first answer lands: the peer's, a dead link's, or the
		// retraction's.
		complete := func(v any, err error) {
			select {
			case answer <- reqAnswer{v, err}:
			default:
			}
		}
		ask := func() (any, error) {
			// A retraction that beat the goroutine here has answered
			// already (both sides hold n.mu): send nothing.
			n.mu.Lock()
			retracted := len(answer) > 0
			if !retracted {
				n.pending[id] = &pendingReq{peer: peer, complete: complete}
			}
			n.mu.Unlock()
			if !retracted && !l.enqueue(mk(id)) {
				// Link died under us; fail the request (linkDown may
				// have swept it already — completePending tolerates).
				n.completePending(id, nil, NodeDownError{Node: peer})
			}
			a := <-answer
			return a.v, a.err
		}
		retract := func() {
			n.mu.Lock()
			delete(n.pending, id)
			complete(nil, exc.PromiseCancelled{})
			n.mu.Unlock()
		}
		return iomgr.DoCancel("cluster."+name, ask, retract, nil)
	})
}

// WhereIs resolves a registered name on a peer to a RemoteRef.
func WhereIs(n *Node, peer NodeID, name string) core.IO[core.Maybe[RemoteRef]] {
	if peer == n.id {
		return core.Lift(func() core.Maybe[RemoteRef] {
			n.mu.Lock()
			defer n.mu.Unlock()
			if tid, ok := n.byName[name]; ok {
				return core.Just(RemoteRef{Node: n.id, TID: tid})
			}
			return core.Nothing[RemoteRef]()
		})
	}
	m := request(n, peer, "whereis", func(ref uint64) frame {
		return frame{kind: fWhereis, ref: ref, name: name}
	})
	return core.Map(m, func(v any) core.Maybe[RemoteRef] {
		ans, ok := v.(core.Maybe[core.ThreadID])
		if !ok || !ans.IsJust {
			return core.Nothing[RemoteRef]()
		}
		return core.Just(RemoteRef{Node: peer, TID: ans.Value})
	})
}

// SpawnRemote starts a service registered on the peer (via
// RegisterService) and returns the ref of its thread, which is
// exported and therefore monitorable from the moment the reply
// arrives. Unknown services throw RemoteError; a link death while
// waiting throws NodeDownError.
func SpawnRemote(n *Node, peer NodeID, service string) core.IO[RemoteRef] {
	m := request(n, peer, "spawn", func(ref uint64) frame {
		return frame{kind: fSpawn, ref: ref, name: service}
	})
	return core.Bind(m, func(v any) core.IO[RemoteRef] {
		ref, ok := v.(RemoteRef)
		if !ok {
			return core.Throw[RemoteRef](RemoteError{Node: peer, Msg: "malformed spawn reply"})
		}
		return core.Return(ref)
	})
}

// SpawnRegistered forks body locally, exports it under name, and
// returns its ref — the green-side way to make a thread visible to
// the cluster (peers find it with WhereIs, kill it with ThrowTo,
// watch it with Monitor). The fork runs masked so the export happens
// before any exception can reach the parent between the two steps;
// the body itself starts Unblocked inside an outcome-capturing Try.
func SpawnRegistered(n *Node, name string, body core.IO[core.Unit]) core.IO[RemoteRef] {
	wrapped := n.exportedBody(func() core.IO[core.Unit] { return body })
	return core.Block(core.Bind(core.ForkNamed(wrapped, "cluster:"+name), func(tid core.ThreadID) core.IO[RemoteRef] {
		return core.Then(
			core.Lift(func() core.Unit { n.exportTID(name, tid); return core.UnitValue }),
			core.Return(RemoteRef{Node: n.id, TID: tid}))
	}))
}

// Demonitor retracts a watch. Any Down already in flight (or already
// in the Box) stays; retraction only prevents future delivery.
func Demonitor(n *Node, m Monitored) core.IO[core.Unit] {
	return core.Lift(func() core.Unit {
		if m.Ref.Node == n.id {
			n.demonitorLocal(m.ID)
			return core.UnitValue
		}
		n.mu.Lock()
		delete(n.monitors, m.ID)
		l := n.links[m.Ref.Node]
		n.mu.Unlock()
		if l != nil && m.ID != 0 {
			l.enqueue(frame{kind: fDemonitor, ref: m.ID})
		}
		return core.UnitValue
	})
}

// ---------------------------------------------------------------------
// Distributed supervision
// ---------------------------------------------------------------------

// RemoteChild packages a remote service as a supervise.ChildSpec: the
// local child incarnation spawns the service on the peer, monitors
// it, and blocks on the Down. The Down is translated back into the
// supervisor's local vocabulary — a remote exit is an exit, a remote
// kill dies by ThreadKilled, a remote crash re-throws the decoded
// exception, and NoProc/NodeDown surface as NodeDownError (classified
// Crashed, so the supervisor restarts and re-spawns, typically after
// ConnectRetry has re-established the link). If the local incarnation
// is itself killed — supervisor shutdown, one-for-all restart — the
// remote thread is killed too (at-most-once; if the link is gone the
// remote side is already dealing with NodeDown on its own).
func RemoteChild(n *Node, peer NodeID, service string, restart supervise.RestartPolicy) supervise.ChildSpec {
	return supervise.ChildSpec{
		ID:      string(peer) + "/" + service,
		Restart: restart,
		Start: func() core.IO[core.Unit] {
			return core.Bind(SpawnRemote(n, peer, service), func(ref RemoteRef) core.IO[core.Unit] {
				return core.Bind(Monitor(n, ref), func(m Monitored) core.IO[core.Unit] {
					await := core.Bind(m.Await(), func(d Down) core.IO[core.Unit] {
						switch d.Reason {
						case DownExited:
							return core.Return(core.UnitValue)
						case DownKilled:
							return core.Throw[core.Unit](exc.ThreadKilled{})
						case DownCrashed:
							return core.Throw[core.Unit](d.Exc)
						default: // NoProc, NodeDown
							return core.Throw[core.Unit](NodeDownError{Node: ref.Node})
						}
					})
					kill := core.Try(Kill(n, ref)) // best-effort; swallow NotConnected
					return core.OnException(await, kill)
				})
			})
		},
	}
}
