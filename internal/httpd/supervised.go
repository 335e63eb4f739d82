package httpd

import (
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"asyncexc/internal/conc"
	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/iomgr"
	"asyncexc/internal/sched"
	"asyncexc/internal/supervise"
)

// Tree is the supervised server's two-level supervision tree:
//
//	root (one-for-one)
//	├── conns  — supervisor of per-connection Temporary workers
//	└── accept — Permanent dispatcher; crashes/kills get it restarted
//
// The accept child is started after the conns supervisor, so teardown
// (reverse start order) first stops accepting, then stops the
// in-flight connections — a tree-structured graceful shutdown.
//
// The blocking Accept itself runs in a thin pump thread owned by
// Tree.Run, feeding a channel the supervised dispatcher reads. The
// split exists because interrupting a thread parked in Accept closes
// the listener (that is the only way to unblock the underlying Go
// call): a restartable child must not hold the listener hostage, so
// the restartable part is the dispatcher, and the pump dies only when
// the whole tree does.
type Tree struct {
	// Root supervises the accept dispatcher and the conns supervisor.
	Root *Supervisor
	// Conns supervises one Temporary child per live connection; its
	// Crashes metric counts handler crashes that escaped to the tree.
	Conns *Supervisor

	srv   *Server
	connQ conc.Chan[*iomgr.Conn]
	lst   *iomgr.Listener
}

// Supervisor is re-exported so httpd callers don't need to import
// internal/supervise for the handles.
type Supervisor = supervise.Supervisor

// Run runs the tree in the calling thread until killed, closing the
// listener on the way out. The accept pump is bracketed around the
// tree: it outlives any number of dispatcher restarts and dies with
// the root.
func (tr *Tree) Run() core.IO[core.Unit] {
	pump := core.Forever(
		core.Bind(tr.lst.Accept(), func(c *iomgr.Conn) core.IO[core.Unit] {
			tr.srv.Stats.Accepted.Add(1)
			return tr.connQ.Write(c)
		}))
	return core.Block(core.Finally(
		core.Bind(conc.Spawn(pump), func(p conc.Async[core.Unit]) core.IO[core.Unit] {
			return core.Finally(tr.Root.Run(), p.Cancel())
		}),
		core.Void(tr.lst.Close())))
}

// SupervisedTree builds the two-level tree serving on l. Compared with
// RunOn's flat fork-per-connection design, every thread in the server
// now has a supervising parent: a crashed accept loop is restarted
// (Permanent) while still holding the same listener, and each
// connection runs as a Temporary child whose crash is recorded but not
// restarted — a dead connection is not worth reviving.
func (s *Server) SupervisedTree(l net.Listener) core.IO[*Tree] {
	lst := &iomgr.Listener{L: l}
	var connSeq atomic.Int64 // unique child IDs across dispatcher incarnations
	connsSpec := supervise.Spec{
		Name:     "conns",
		Strategy: supervise.OneForOne,
		// Temporary children never restart, so intensity never trips;
		// the limit only guards against a future non-Temporary child.
		Intensity: supervise.Intensity{MaxRestarts: -1, Window: time.Second},
	}
	return core.Bind(supervise.NewSupervisor(connsSpec), func(conns *supervise.Supervisor) core.IO[*Tree] {
		return core.Bind(conc.NewQSem(s.cfg.MaxConns), func(sem conc.QSem) core.IO[*Tree] {
			return core.Bind(conc.NewChan[*iomgr.Conn](), func(connQ conc.Chan[*iomgr.Conn]) core.IO[*Tree] {
				rootSpec := supervise.Spec{
					Name:     "httpd",
					Strategy: supervise.OneForOne,
					Children: []supervise.ChildSpec{
						conns.AsChild(supervise.Permanent, s.cfg.DrainTimeout),
						{
							ID:       "accept",
							Start:    func() core.IO[core.Unit] { return s.acceptSupervised(connQ, conns, sem, &connSeq) },
							Restart:  supervise.Permanent,
							Shutdown: 100 * time.Millisecond,
						},
					},
				}
				return core.Bind(supervise.NewSupervisor(rootSpec), func(root *supervise.Supervisor) core.IO[*Tree] {
					return core.Return(&Tree{Root: root, Conns: conns, srv: s, connQ: connQ, lst: lst})
				})
			})
		})
	})
}

// acceptSupervised is the accept loop in supervised mode: instead of a
// bare Fork, each connection becomes a Temporary child of the conns
// supervisor, so its death — normal, reaped, or crashed — flows
// through the tree's accounting. It reads accepted connections from
// the pump's channel (see Tree), which is what makes it safely
// restartable: a kill mid-park loses no listener and no connection.
func (s *Server) acceptSupervised(connQ conc.Chan[*iomgr.Conn], conns *supervise.Supervisor, sem conc.QSem, seq *atomic.Int64) core.IO[core.Unit] {
	return core.Forever(
		core.Bind(connQ.Read(), func(c *iomgr.Conn) core.IO[core.Unit] {
			return core.Bind(sem.TryWait(), func(ok bool) core.IO[core.Unit] {
				if !ok {
					s.Stats.Rejected.Add(1)
					return core.Void(c.Close())
				}
				s.Stats.Active.Add(1)
				release := core.Then(sem.Signal(),
					core.Lift(func() core.Unit {
						s.Stats.Active.Add(-1)
						return core.UnitValue
					}))
				child := supervise.ChildSpec{
					ID: "conn-" + strconv.FormatInt(seq.Add(1), 10),
					Start: func() core.IO[core.Unit] {
						return core.Finally(s.serveConnSupervised(c), release)
					},
					Restart:  supervise.Temporary,
					Shutdown: s.cfg.DrainTimeout,
				}
				return core.Bind(core.Try(conns.StartChild(child)), func(r core.Attempt[core.Unit]) core.IO[core.Unit] {
					if r.Failed() {
						// The conns supervisor is unavailable (tree mid-
						// teardown): the child never ran, clean up here.
						return core.Then(core.Void(core.Try(core.Void(c.Close()))), release)
					}
					return core.Return(core.UnitValue)
				})
			})
		}))
}

// serveConnSupervised is serveConn, except a handler crash is
// re-raised after its 500 so the supervision tree records it; alerts
// (the request timeout reaping us) stay non-fatal to the accounting.
func (s *Server) serveConnSupervised(c *iomgr.Conn) core.IO[core.Unit] {
	work := core.Bind(core.TryTimeout(s.cfg.RequestTimeout, s.serveRequestMode(c, true)),
		func(r core.TimeoutResult[core.Unit]) core.IO[core.Unit] {
			switch {
			case r.Expired:
				s.Stats.TimedOut.Add(1)
				return core.Void(core.Try(writeResponse(c, Text(503, "request timed out\n"))))
			case r.Exc != nil:
				// Re-raise so the guard below decides whether the
				// supervisor should hear about it.
				return core.Throw[core.Unit](r.Exc)
			default:
				return core.Return(core.UnitValue)
			}
		})
	guarded := core.Catch(work, func(e core.Exception) core.IO[core.Unit] {
		s.Stats.Errors.Add(1)
		if exc.IsAlertException(e) || e.Eq(supervise.Shutdown{}) {
			// Reaped or deliberately stopped: a quiet death.
			return core.Return(core.UnitValue)
		}
		return core.Throw[core.Unit](e)
	})
	return core.Finally(guarded, core.Void(c.Close()))
}

// RunSupervisedOn serves on an already-open listener under the
// supervision tree until the calling thread is killed.
func (s *Server) RunSupervisedOn(l net.Listener) core.IO[core.Unit] {
	return core.Bind(s.SupervisedTree(l), func(tr *Tree) core.IO[core.Unit] {
		return tr.Run()
	})
}

// RunningSupervised is a live supervised server with its tree handles.
type RunningSupervised struct {
	*Running
	// Tree exposes the supervisor handles (metrics, child thread IDs).
	Tree *Tree
}

// StartSupervised is Start for the supervised variant: listener, real
// runtime on a goroutine, and the tree handles for observability.
func (s *Server) StartSupervised() (*RunningSupervised, error) {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(s.runtimeOptions())
	r := &Running{Addr: l.Addr().String(), sys: sys, done: make(chan struct{})}
	treeCh := make(chan *Tree, 1)
	prog := core.Bind(s.SupervisedTree(l), func(tr *Tree) core.IO[core.Unit] {
		treeCh <- tr // scheduler goroutine, before the tree serves
		return tr.Run()
	})
	go func() {
		defer close(r.done)
		_, e, err := core.RunSystem(sys, prog)
		if err != nil {
			r.err = err
		} else if e != nil && !e.Eq(exc.ThreadKilled{}) {
			r.err = exc.AsError(e)
		}
	}()
	select {
	case tr := <-treeCh:
		return &RunningSupervised{Running: r, Tree: tr}, nil
	case <-r.done:
		l.Close()
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("httpd: supervised runtime exited during startup")
	}
}

// Kill throws ThreadKilled at an arbitrary runtime thread from
// ordinary Go code — the fault-injection hook used by tests and chaos
// runs to kill the accept loop or a connection worker.
func (r *Running) Kill(tid core.ThreadID) {
	r.sys.RT().External(func(rt *sched.RT) { rt.Interrupt(tid, exc.ThreadKilled{}) })
}

// SchedStats snapshots the runtime scheduler counters of a live
// server. The snapshot is taken on the scheduler goroutine (an
// External event), so it is race-free against a running system; after
// the runtime has exited the counters are read directly.
func (r *Running) SchedStats() sched.Stats {
	select {
	case <-r.done:
		return r.sys.Stats()
	default:
	}
	ch := make(chan sched.Stats, 1)
	r.sys.RT().External(func(rt *sched.RT) { ch <- rt.Stats() })
	select {
	case st := <-ch:
		return st
	case <-r.done:
		return r.sys.Stats()
	}
}

// ShardStats snapshots the per-shard scheduler counters of a live
// server — one entry per shard on the parallel engine, one in serial
// mode — via the same External mechanism as SchedStats.
func (r *Running) ShardStats() []sched.Stats {
	select {
	case <-r.done:
		return r.sys.ShardStats()
	default:
	}
	ch := make(chan []sched.Stats, 1)
	r.sys.RT().External(func(rt *sched.RT) { ch <- rt.ShardStats() })
	select {
	case st := <-ch:
		return st
	case <-r.done:
		return r.sys.ShardStats()
	}
}

// Shards returns the number of execution shards the server runs on.
func (r *Running) Shards() int { return r.sys.Shards() }
