package cluster

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/sched"
	"asyncexc/internal/supervise"
)

// NodeID names one process in the cluster. IDs are chosen by the
// operator and exchanged in the handshake; they must be unique.
type NodeID string

// RemoteRef names a thread anywhere in the cluster: the node it lives
// on plus its ThreadID there. A ref whose Node is the local node is
// handled without touching the wire.
type RemoteRef struct {
	// Node is the hosting node.
	Node NodeID
	// TID is the thread's id on that node.
	TID core.ThreadID
}

func (r RemoteRef) String() string { return fmt.Sprintf("%s/%v", r.Node, r.TID) }

// Options tunes a Node.
type Options struct {
	// Heartbeat is the ping interval; a link with no traffic for two
	// intervals is declared dead. Zero means 250ms.
	Heartbeat time.Duration
	// HandshakeTimeout bounds the hello exchange. Zero means 2s.
	HandshakeTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 250 * time.Millisecond
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 2 * time.Second
	}
	return o
}

// Stats are Go-side counters for one node.
type Stats struct {
	// FramesSent / FramesReceived count accepted frames.
	FramesSent     atomic.Uint64
	FramesReceived atomic.Uint64
	// DupDropped counts frames discarded by the sequence check.
	DupDropped atomic.Uint64
	// LinksOpened / LinksClosed count link lifecycle transitions.
	LinksOpened atomic.Uint64
	LinksClosed atomic.Uint64
	// RemoteThrows counts inbound throwTo frames injected.
	RemoteThrows atomic.Uint64
}

// Node is one cluster member: the bridge between this process's green
// runtime and its peers. The link manager (accept loop, per-link
// reader/writer/heartbeat goroutines) lives on the Go side and talks
// to the runtime exclusively through rt.External — the same door the
// I/O manager uses — so every remote effect lands as an ordinary
// scheduler event and the paper's delivery rules apply untouched.
//
// Lifecycle: NewNode, RegisterService (optional), Serve, green work,
// Close. Close the node before stopping the runtime so late frames
// are dropped instead of injected into a dead system.
type Node struct {
	id   NodeID
	rt   *sched.RT
	tr   Transport
	opts Options

	// Stats is safe to read at any time.
	Stats Stats

	mu       sync.Mutex
	closed   bool
	lis      net.Listener
	links    map[NodeID]*link
	services map[string]func() core.IO[core.Unit]
	byName   map[string]core.ThreadID
	byTID    map[core.ThreadID]*export
	deadTIDs map[core.ThreadID]exitInfo
	monitors map[uint64]*remoteMonitor
	pending  map[uint64]*pendingReq
	nextRef  uint64

	wg sync.WaitGroup
}

// export is one locally registered (monitorable, whereis-able) thread.
type export struct {
	name     string
	tid      core.ThreadID
	watchers []watcher
}

// watcher is one death-watch on an export: a remote monitor (peer +
// its monitor ref) or a local one (peer "" and the Down box).
type watcher struct {
	peer NodeID
	ref  uint64
	box  core.MVar[Down]
}

type exitInfo struct {
	reason supervise.ExitReason
	exc    exc.Exception
}

// remoteMonitor is one death-watch this node holds on a remote ref.
type remoteMonitor struct {
	peer NodeID
	ref  RemoteRef
	box  core.MVar[Down]
}

// pendingReq is an outstanding whereis/spawn request: the waiting
// request's completion callback, plus the peer it depends on so a dead
// link can fail it.
type pendingReq struct {
	peer     NodeID
	complete func(v any, err error)
}

// link is one live connection to a peer. Frames to send are enqueued
// as structs; the single writer goroutine assigns the send sequence
// just before encoding, so sequence order and wire order agree.
type link struct {
	peer     NodeID
	conn     net.Conn
	out      chan frame
	done     chan struct{}
	once     sync.Once
	sendSeq  uint64       // writer goroutine only
	recvSeq  uint64       // reader goroutine only
	lastRecv atomic.Int64 // unix ns of the last frame (any kind)
}

// teardown closes the connection and stops the link goroutines; safe
// to call from any of them, any number of times.
func (l *link) teardown() {
	l.once.Do(func() {
		close(l.done)
		l.conn.Close() //nolint:errcheck // idempotent
	})
}

// enqueue hands a frame to the writer; it reports false when the link
// is already down (the frame is dropped — at-most-once, never queued
// for a resurrected link).
func (l *link) enqueue(f frame) bool {
	select {
	case <-l.done:
		return false
	default:
	}
	select {
	case l.out <- f:
		return true
	case <-l.done:
		return false
	}
}

// NewNode creates a node bound to a running System's runtime. The
// node is inert until Serve (inbound) or Connect (outbound).
func NewNode(id NodeID, sys *core.System, tr Transport, opts Options) *Node {
	return &Node{
		id:       id,
		rt:       sys.RT(),
		tr:       tr,
		opts:     opts.withDefaults(),
		links:    map[NodeID]*link{},
		services: map[string]func() core.IO[core.Unit]{},
		byName:   map[string]core.ThreadID{},
		byTID:    map[core.ThreadID]*export{},
		deadTIDs: map[core.ThreadID]exitInfo{},
		monitors: map[uint64]*remoteMonitor{},
		pending:  map[uint64]*pendingReq{},
	}
}

// ID returns the node's id.
func (n *Node) ID() NodeID { return n.id }

// RegisterService makes a named IO action spawnable by peers via
// SpawnRemote. Register before Serve; fn is called once per spawn.
func (n *Node) RegisterService(name string, fn func() core.IO[core.Unit]) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.services[name] = fn
}

// Serve binds the node's listener and starts accepting peers. It
// returns the bound address (useful with ":0" TCP listeners).
func (n *Node) Serve(addr string) (net.Addr, error) {
	lis, err := n.tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		lis.Close() //nolint:errcheck
		return nil, fmt.Errorf("cluster: node %s is closed", n.id)
	}
	n.lis = lis
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop(lis)
	return lis.Addr(), nil
}

func (n *Node) acceptLoop(lis net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serverHandshake(conn)
		}()
	}
}

// Close tears the node down: no more injections into the runtime, all
// links closed (peers will see the socket die and synthesize NodeDown
// on their side), listener closed, goroutines joined. Idempotent.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	lis := n.lis
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.links = map[NodeID]*link{}
	reqs := n.pending
	n.pending = map[uint64]*pendingReq{}
	n.mu.Unlock()

	if lis != nil {
		lis.Close() //nolint:errcheck
	}
	for _, l := range links {
		l.teardown()
	}
	// Parked requesters must not hang on a closed node; External posts
	// are still safe (the runtime is required to outlive Close).
	for _, p := range reqs {
		p.complete(nil, NodeDownError{Node: n.id})
	}
	n.wg.Wait()
}

// ---------------------------------------------------------------------
// Handshake and link installation
// ---------------------------------------------------------------------

// clientHandshake runs the dialer's side: hello out, helloAck in.
// Called from a green thread via iomgr (the conn is closed by the
// surrounding BracketOnError if anything here fails).
func (n *Node) clientHandshake(conn net.Conn) (NodeID, error) {
	deadline := time.Now().Add(n.opts.HandshakeTimeout)
	conn.SetDeadline(deadline) //nolint:errcheck
	hello := frame{kind: fHello, name: string(n.id)}
	if _, err := conn.Write(hello.encode()); err != nil {
		return "", err
	}
	f, err := readFrame(conn)
	if err != nil {
		return "", err
	}
	if f.kind != fHelloAck || f.name == "" {
		return "", fmt.Errorf("cluster: bad handshake answer %v", f.kind)
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	peer := NodeID(f.name)
	if err := n.installLink(peer, conn); err != nil {
		return "", err
	}
	return peer, nil
}

// serverHandshake runs the acceptor's side on its own goroutine.
func (n *Node) serverHandshake(conn net.Conn) {
	deadline := time.Now().Add(n.opts.HandshakeTimeout)
	conn.SetDeadline(deadline) //nolint:errcheck
	f, err := readFrame(conn)
	if err != nil || f.kind != fHello || f.name == "" {
		conn.Close() //nolint:errcheck
		return
	}
	ack := frame{kind: fHelloAck, name: string(n.id)}
	if _, err := conn.Write(ack.encode()); err != nil {
		conn.Close() //nolint:errcheck
		return
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	if err := n.installLink(NodeID(f.name), conn); err != nil {
		conn.Close() //nolint:errcheck
	}
}

// readFrame reads one length-prefixed frame off the raw conn; used by
// both handshake sides and the link reader.
func readFrame(conn net.Conn) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return frame{}, err
	}
	size := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
	if size > maxFrame {
		return frame{}, fmt.Errorf("cluster: frame of %d bytes exceeds cap", size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return frame{}, err
	}
	return decodeFrame(buf)
}

// installLink registers the connection as the live link to peer and
// starts its goroutines. A pre-existing link to the same peer is torn
// down silently (reconnect replaces, without synthesizing NodeDown:
// the peer did not die, its transport moved).
func (n *Node) installLink(peer NodeID, conn net.Conn) error {
	l := &link{peer: peer, conn: conn, out: make(chan frame, 128), done: make(chan struct{})}
	l.lastRecv.Store(time.Now().UnixNano())
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("cluster: node %s is closed", n.id)
	}
	old := n.links[peer]
	n.links[peer] = l
	n.mu.Unlock()
	if old != nil {
		// A reconnect replaced a link whose death the heartbeat had
		// not yet noticed; its linkDown will see the map has moved on
		// and skip accounting, so count the close here.
		old.teardown()
		n.Stats.LinksClosed.Add(1)
	}
	n.Stats.LinksOpened.Add(1)
	n.wg.Add(3)
	go n.writeLoop(l)
	go n.readLoop(l)
	go n.heartbeatLoop(l)
	n.inject(func(rt *sched.RT) { rt.NoteLinkEvent(true, string(peer)) })
	return nil
}

// inject posts f into the runtime unless the node is closed. All
// runtime state the cluster layer touches goes through here.
func (n *Node) inject(f func(*sched.RT)) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	n.rt.External(f)
}

// injectFrame is inject for frame-driven work, labelled by (peer, seq)
// so schedule record/replay can force the arrival order of concurrent
// frames deterministically (docs/SIMULATION.md) instead of letting the
// external-queue race decide.
func (n *Node) injectFrame(l *link, seq uint64, f func(*sched.RT)) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	n.rt.ExternalLabeled(frameLabel(l.peer, seq), f)
}

// frameLabel derives a stable simulation label for a frame arrival:
// FNV-64a over the peer id, folded with the link sequence number. The
// low bit is forced so the label is never 0 (the "unlabelled" value).
func frameLabel(peer NodeID, seq uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(peer); i++ {
		h ^= uint64(peer[i])
		h *= 1099511628211
	}
	return (h ^ (seq << 1)) | 1
}

// linkDown removes a dead link and synthesizes the consequences: all
// monitors held on that peer fire Down{NodeDown}, all pending
// requests against it fail, and a KindLinkDown event is recorded.
func (n *Node) linkDown(l *link, cause string) {
	_ = cause
	n.mu.Lock()
	if n.links[l.peer] != l {
		// Already replaced (reconnect) or handled; just make sure the
		// goroutines die.
		n.mu.Unlock()
		l.teardown()
		return
	}
	delete(n.links, l.peer)
	closed := n.closed
	var mons []*remoteMonitor
	for id, m := range n.monitors {
		if m.peer == l.peer {
			delete(n.monitors, id)
			mons = append(mons, m)
		}
	}
	var reqs []*pendingReq
	for id, p := range n.pending {
		if p.peer == l.peer {
			delete(n.pending, id)
			reqs = append(reqs, p)
		}
	}
	n.mu.Unlock()

	l.teardown()
	n.Stats.LinksClosed.Add(1)
	for _, p := range reqs {
		p.complete(nil, NodeDownError{Node: l.peer})
	}
	if closed {
		return
	}
	peer := l.peer
	n.rt.External(func(rt *sched.RT) {
		rt.NoteLinkEvent(false, string(peer))
		for _, m := range mons {
			d := Down{Ref: m.ref, Reason: DownNodeDown, Exc: NodeDownError{Node: peer}}
			rt.Spawn(core.Put(m.box, d).Node(), "cluster:down")
		}
	})
}

// ---------------------------------------------------------------------
// Link goroutines
// ---------------------------------------------------------------------

func (n *Node) writeLoop(l *link) {
	defer n.wg.Done()
	for {
		select {
		case f := <-l.out:
			l.sendSeq++
			f.seq = l.sendSeq
			b := f.encode()
			l.conn.SetWriteDeadline(time.Now().Add(2 * n.opts.Heartbeat)) //nolint:errcheck
			if _, err := l.conn.Write(b); err != nil {
				n.linkDown(l, "write: "+err.Error())
				return
			}
			n.Stats.FramesSent.Add(1)
		case <-l.done:
			return
		}
	}
}

func (n *Node) readLoop(l *link) {
	defer n.wg.Done()
	for {
		f, err := readFrame(l.conn)
		if err != nil {
			n.linkDown(l, "read: "+err.Error())
			return
		}
		l.lastRecv.Store(time.Now().UnixNano())
		if f.seq <= l.recvSeq {
			// Duplicate (or a replayed prefix); the at-most-once rule.
			n.Stats.DupDropped.Add(1)
			continue
		}
		l.recvSeq = f.seq
		n.Stats.FramesReceived.Add(1)
		n.dispatch(l, f)
	}
}

func (n *Node) heartbeatLoop(l *link) {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if time.Now().UnixNano()-l.lastRecv.Load() > int64(2*n.opts.Heartbeat) {
				n.linkDown(l, "heartbeat timeout")
				return
			}
			l.enqueue(frame{kind: fPing})
		case <-l.done:
			return
		}
	}
}

// ---------------------------------------------------------------------
// Inbound dispatch
// ---------------------------------------------------------------------

func (n *Node) dispatch(l *link, f frame) {
	switch f.kind {
	case fPing:
		l.enqueue(frame{kind: fPong})
	case fPong:
		// lastRecv already refreshed; nothing else to do.
	case fThrowTo:
		n.handleThrowTo(l, f)
	case fMonitor:
		n.handleMonitor(l, f)
	case fDemonitor:
		n.handleDemonitor(l, f)
	case fDown:
		n.handleDown(l, f)
	case fWhereis:
		n.handleWhereis(l, f)
	case fWhereisReply:
		n.completePending(f.ref, whereisAnswer(f), nil)
	case fSpawn:
		n.handleSpawn(l, f)
	case fSpawnReply:
		if f.flag == 1 {
			n.completePending(f.ref, RemoteRef{Node: l.peer, TID: core.ThreadID(int64(f.tid))}, nil)
		} else {
			n.completePending(f.ref, nil, RemoteError{Node: l.peer, Msg: f.name})
		}
	default:
		// Mid-stream hello frames or future kinds: ignore.
	}
}

func whereisAnswer(f frame) core.Maybe[core.ThreadID] {
	if f.flag != 1 {
		return core.Nothing[core.ThreadID]()
	}
	return core.Just(core.ThreadID(int64(f.tid)))
}

// handleThrowTo injects an inbound exception through the runtime's
// environment-interrupt door. The paper's rules take over from there:
// masked targets queue it, interruptible parked targets are woken,
// catch frames and bracket cleanups unwind exactly as for a local
// throwTo.
func (n *Node) handleThrowTo(l *link, f frame) {
	tid := sched.ThreadID(int64(f.tid))
	e := f.exc
	if e == nil {
		e = exc.ThreadKilled{}
	}
	origin := string(l.peer)
	wireSpan := f.span
	n.Stats.RemoteThrows.Add(1)
	n.injectFrame(l, f.seq, func(rt *sched.RT) {
		rt.InterruptFromWire(tid, e, origin, wireSpan)
	})
}

func (n *Node) handleMonitor(l *link, f frame) {
	tid := core.ThreadID(int64(f.tid))
	n.mu.Lock()
	ex := n.byTID[tid]
	if ex != nil {
		ex.watchers = append(ex.watchers, watcher{peer: l.peer, ref: f.ref})
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	// Unknown or already-dead thread: answer NoProc immediately so the
	// monitor never hangs (the at-most-once kill may have beaten us).
	l.enqueue(frame{kind: fDown, ref: f.ref, flag: uint8(DownNoProc)})
}

func (n *Node) handleDemonitor(l *link, f frame) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ex := range n.byTID {
		for i, w := range ex.watchers {
			if w.peer == l.peer && w.ref == f.ref {
				ex.watchers = append(ex.watchers[:i], ex.watchers[i+1:]...)
				return
			}
		}
	}
}

func (n *Node) handleDown(l *link, f frame) {
	n.mu.Lock()
	m := n.monitors[f.ref]
	delete(n.monitors, f.ref)
	n.mu.Unlock()
	if m == nil {
		return // demonitored, link-downed, or a duplicate that survived
	}
	d := Down{Ref: m.ref, Reason: DownReason(f.flag), Exc: f.exc}
	n.injectFrame(l, f.seq, func(rt *sched.RT) {
		rt.Spawn(core.Put(m.box, d).Node(), "cluster:down")
	})
}

func (n *Node) handleWhereis(l *link, f frame) {
	n.mu.Lock()
	tid, ok := n.byName[f.name]
	n.mu.Unlock()
	reply := frame{kind: fWhereisReply, ref: f.ref}
	if ok {
		reply.flag = 1
		reply.tid = uint64(int64(tid))
	}
	l.enqueue(reply)
}

// handleSpawn starts a registered service on behalf of a peer. The
// spawn, the registry entry and the reply all happen inside one
// External callback, so by the time the requester learns the
// ThreadID the thread is already monitorable.
func (n *Node) handleSpawn(l *link, f frame) {
	n.mu.Lock()
	fn := n.services[f.name]
	n.mu.Unlock()
	if fn == nil {
		l.enqueue(frame{kind: fSpawnReply, ref: f.ref, flag: 0, name: "unknown service: " + f.name})
		return
	}
	service, ref := f.name, f.ref
	n.injectFrame(l, f.seq, func(rt *sched.RT) {
		tid := core.ThreadID(rt.Spawn(n.exportedBody(fn).Node(), "cluster:"+service))
		n.exportTID(service, tid)
		l.enqueue(frame{kind: fSpawnReply, ref: ref, flag: 1, tid: uint64(int64(tid))})
	})
}

// completePending resolves one outstanding request.
func (n *Node) completePending(ref uint64, v any, err error) {
	n.mu.Lock()
	p := n.pending[ref]
	delete(n.pending, ref)
	n.mu.Unlock()
	if p != nil {
		p.complete(v, err)
	}
}

// ---------------------------------------------------------------------
// Export registry and local deaths
// ---------------------------------------------------------------------

// exportedBody wraps a service body so its outcome — however it dies —
// is reported to the registry, which fans it out to every watcher.
// The Try is installed before the body runs (the thread starts at it),
// so no exception can slip out unclassified.
func (n *Node) exportedBody(fn func() core.IO[core.Unit]) core.IO[core.Unit] {
	return core.Bind(core.MyThreadID(), func(me core.ThreadID) core.IO[core.Unit] {
		return core.Bind(core.Try(core.Unblock(core.Delay(fn))), func(r core.Attempt[core.Unit]) core.IO[core.Unit] {
			return core.Lift(func() core.Unit {
				n.localExit(me, supervise.Classify(r.Exc), r.Exc)
				return core.UnitValue
			})
		})
	})
}

// ExportedBody is the exported-thread wrapping for callers that fork
// the thread themselves: run in a fresh thread, the returned body
// registers that thread under name — WhereIs-resolvable and
// monitorable from peers, like a SpawnRegistered thread — and reports
// its exit to every watcher. supervise children (and actor.AsChild
// incarnations) use it, re-exporting the name at each restart so
// peers always resolve to the live incarnation. The registration runs
// masked; the body itself starts Unblocked inside the usual
// outcome-capturing Try.
func ExportedBody(n *Node, name string, fn func() core.IO[core.Unit]) core.IO[core.Unit] {
	return core.Block(core.Bind(core.MyThreadID(), func(me core.ThreadID) core.IO[core.Unit] {
		return core.Then(
			core.Lift(func() core.Unit { n.exportTID(name, me); return core.UnitValue }),
			n.exportedBody(fn))
	}))
}

// exportTID registers a live thread under name. If the thread already
// died (possible in parallel mode when the child ran and finished
// before its registrar got here), the pre-recorded death is consumed
// and no entry is created — later monitors correctly see NoProc.
func (n *Node) exportTID(name string, tid core.ThreadID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dead := n.deadTIDs[tid]; dead {
		delete(n.deadTIDs, tid)
		return
	}
	ex := &export{name: name, tid: tid}
	n.byTID[tid] = ex
	if name != "" {
		n.byName[name] = tid
	}
}

// localExit records the death of an exported thread and notifies all
// of its watchers: remote ones get a down frame over their link,
// local ones get their Down box filled. The export leaves the
// registry — monitors arriving later see NoProc.
func (n *Node) localExit(tid core.ThreadID, reason supervise.ExitReason, e exc.Exception) {
	n.mu.Lock()
	ex := n.byTID[tid]
	if ex == nil {
		// Died before exportTID registered it: leave a note.
		n.deadTIDs[tid] = exitInfo{reason: reason, exc: e}
		n.mu.Unlock()
		return
	}
	delete(n.byTID, tid)
	if ex.name != "" && n.byName[ex.name] == tid {
		delete(n.byName, ex.name)
	}
	watchers := ex.watchers
	ex.watchers = nil
	links := map[NodeID]*link{}
	for _, w := range watchers {
		if w.peer != "" {
			links[w.peer] = n.links[w.peer]
		}
	}
	n.mu.Unlock()

	down := DownExited
	switch reason {
	case supervise.Killed:
		down = DownKilled
	case supervise.Crashed:
		down = DownCrashed
	}
	ref := RemoteRef{Node: n.id, TID: tid}
	for _, w := range watchers {
		if w.peer == "" {
			box := w.box
			d := Down{Ref: ref, Reason: down, Exc: e}
			n.inject(func(rt *sched.RT) {
				rt.Spawn(core.Put(box, d).Node(), "cluster:down")
			})
			continue
		}
		if l := links[w.peer]; l != nil {
			l.enqueue(frame{kind: fDown, ref: w.ref, flag: uint8(down), exc: e})
		}
	}
}

// demonitorLocal retracts a local watcher by id.
func (n *Node) demonitorLocal(id uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ex := range n.byTID {
		for i, w := range ex.watchers {
			if w.peer == "" && w.ref == id {
				ex.watchers = append(ex.watchers[:i], ex.watchers[i+1:]...)
				return
			}
		}
	}
}

// ref allocates a node-unique id for monitors and requests.
func (n *Node) refID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextRef++
	return n.nextRef
}

// lookupLink returns the live link to peer, or nil.
func (n *Node) lookupLink(peer NodeID) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.links[peer]
}

// Peers snapshots the connected peer set.
func (n *Node) Peers() []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeID, 0, len(n.links))
	for id := range n.links {
		out = append(out, id)
	}
	return out
}
