// Package cluster extends the asynchronous-exception runtime across
// process boundaries: each participating process is a Node with a
// NodeID, nodes connect to each other over a length-prefixed binary
// protocol, and a RemoteRef (NodeID, ThreadID) names a thread on a
// peer so that throwTo, kill and monitor work across the wire.
//
// The paper's semantics (§5, §8) is strictly per-process: throwTo
// within one runtime delivers exactly once, synchronously ordered
// with the thrower. Across nodes that guarantee cannot survive the
// network, so the cluster layer promises at-most-once delivery
// instead: every frame carries a per-link sequence number, receivers
// drop anything at or below the last sequence seen (so a duplicated
// frame never injects twice), and a lost link loses in-flight frames
// rather than retrying them. A remote kill that raced a partition may
// therefore never arrive — which is exactly why monitors exist: the
// heartbeat failure detector turns a dead link into Down{NodeDown}
// for every monitor held on that peer, and supervision reacts to the
// Down rather than trusting the kill. docs/CLUSTER.md develops the
// full contrast with the paper's local guarantee.
//
// Delivery on the receiving node reuses the runtime's ordinary
// injection points — an inbound kill becomes sched.InterruptFromWire
// (the §5 environment-interrupt conversion), a monitor notification
// becomes an MVar put — so the paper's mask/interruptible rules apply
// to remote exceptions exactly as to local ones.
package cluster

import (
	"encoding/binary"
	"fmt"

	"asyncexc/internal/exc"
	"asyncexc/internal/supervise"
)

// frameKind tags the wire payload.
type frameKind uint8

const (
	fHello        frameKind = iota + 1 // dialer -> acceptor: my NodeID
	fHelloAck                          // acceptor -> dialer: my NodeID
	fPing                              // heartbeat
	fPong                              // heartbeat answer
	fThrowTo                           // inject an exception into a remote thread
	fMonitor                           // register a death watch on a remote thread
	fDemonitor                         // retract a death watch
	fDown                              // death notification for a watch
	fWhereis                           // name -> ThreadID lookup request
	fWhereisReply                      // lookup answer
	fSpawn                             // start a registered service remotely
	fSpawnReply                        // spawn answer
)

func (k frameKind) String() string {
	switch k {
	case fHello:
		return "hello"
	case fHelloAck:
		return "helloAck"
	case fPing:
		return "ping"
	case fPong:
		return "pong"
	case fThrowTo:
		return "throwTo"
	case fMonitor:
		return "monitor"
	case fDemonitor:
		return "demonitor"
	case fDown:
		return "down"
	case fWhereis:
		return "whereis"
	case fWhereisReply:
		return "whereisReply"
	case fSpawn:
		return "spawn"
	case fSpawnReply:
		return "spawnReply"
	default:
		return fmt.Sprintf("frame(%d)", uint8(k))
	}
}

// maxFrame bounds a single frame's payload; a peer announcing more is
// treated as a protocol violation and the link is dropped.
const maxFrame = 1 << 20

// frame is the decoded form of one wire message. One struct covers
// every kind; unused fields stay zero. On the wire a frame is a
// 4-byte big-endian payload length followed by the payload:
//
//	payload := kind u8 | seq u64 | body
//	body    := kind-specific fields, fixed order (see encode)
//	str     := u32 length | bytes
//	exc     := str name | str payload   ("" name = no exception)
//
// seq is the per-link send sequence: assigned by the single writer
// goroutine just before encoding, so wire order and sequence order
// agree; the receiver drops seq <= last seen, making every effect
// at-most-once under frame duplication.
type frame struct {
	kind frameKind
	seq  uint64
	tid  uint64 // throwTo/monitor target; whereisReply/spawnReply answer
	span uint64 // throwTo: sender-side wire span (joins the two traces)
	ref  uint64 // monitor reference or request correlation id
	flag uint8  // down reason / whereisReply found / spawnReply ok
	name string // hello* node id; whereis/spawn name; spawnReply error
	exc  exc.Exception
}

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// encode renders the frame as a complete wire message (length prefix
// included) so the writer issues exactly one Write per frame — the
// granularity at which the chaos transport duplicates.
func (f frame) encode() []byte {
	b := make([]byte, 4, 64)
	b = append(b, byte(f.kind))
	b = appendU64(b, f.seq)
	switch f.kind {
	case fHello, fHelloAck:
		b = appendStr(b, f.name)
	case fPing, fPong:
	case fThrowTo:
		b = appendU64(b, f.tid)
		b = appendU64(b, f.span)
		b = appendExc(b, f.exc)
	case fMonitor:
		b = appendU64(b, f.ref)
		b = appendU64(b, f.tid)
	case fDemonitor:
		b = appendU64(b, f.ref)
	case fDown:
		b = appendU64(b, f.ref)
		b = append(b, f.flag)
		b = appendExc(b, f.exc)
	case fWhereis:
		b = appendU64(b, f.ref)
		b = appendStr(b, f.name)
	case fWhereisReply:
		b = appendU64(b, f.ref)
		b = append(b, f.flag)
		b = appendU64(b, f.tid)
	case fSpawn:
		b = appendU64(b, f.ref)
		b = appendStr(b, f.name)
	case fSpawnReply:
		b = appendU64(b, f.ref)
		b = append(b, f.flag)
		b = appendU64(b, f.tid)
		b = appendStr(b, f.name)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b
}

// reader consumes a payload with bounds checks; ok goes false on the
// first short read and stays false.
type reader struct {
	b  []byte
	ok bool
}

func (r *reader) u8() uint8 {
	if !r.ok || len(r.b) < 1 {
		r.ok = false
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u64() uint64 {
	if !r.ok || len(r.b) < 8 {
		r.ok = false
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) str() string {
	if !r.ok || len(r.b) < 4 {
		r.ok = false
		return ""
	}
	n := int(binary.BigEndian.Uint32(r.b))
	r.b = r.b[4:]
	if n < 0 || len(r.b) < n {
		r.ok = false
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// decodeFrame parses one payload (the bytes after the length prefix).
func decodeFrame(payload []byte) (frame, error) {
	r := &reader{b: payload, ok: true}
	f := frame{kind: frameKind(r.u8()), seq: r.u64()}
	switch f.kind {
	case fHello, fHelloAck:
		f.name = r.str()
	case fPing, fPong:
	case fThrowTo:
		f.tid = r.u64()
		f.span = r.u64()
		f.exc = readExc(r)
	case fMonitor:
		f.ref = r.u64()
		f.tid = r.u64()
	case fDemonitor:
		f.ref = r.u64()
	case fDown:
		f.ref = r.u64()
		f.flag = r.u8()
		f.exc = readExc(r)
	case fWhereis:
		f.ref = r.u64()
		f.name = r.str()
	case fWhereisReply:
		f.ref = r.u64()
		f.flag = r.u8()
		f.tid = r.u64()
	case fSpawn:
		f.ref = r.u64()
		f.name = r.str()
	case fSpawnReply:
		f.ref = r.u64()
		f.flag = r.u8()
		f.tid = r.u64()
		f.name = r.str()
	default:
		return frame{}, fmt.Errorf("cluster: unknown frame kind %d", uint8(f.kind))
	}
	if !r.ok {
		return frame{}, fmt.Errorf("cluster: truncated %v frame (%d bytes)", f.kind, len(payload))
	}
	return f, nil
}

// ---------------------------------------------------------------------
// Exception codec
// ---------------------------------------------------------------------

// sep separates multi-field exception payloads (US, unit separator).
const sep = "\x1f"

// appendExc encodes an exception as (name, payload) strings. The
// known family round-trips to the identical value, so handler
// equality (Eq) works across the wire — a remote ThreadKilled is
// classified Killed by supervise exactly like a local one. Anything
// outside the family degrades to exc.Dyn keyed by its exception name:
// still comparable, printable and classifiable as a crash.
func appendExc(b []byte, e exc.Exception) []byte {
	if e == nil {
		return appendStr(appendStr(b, ""), "")
	}
	var name, payload string
	switch v := e.(type) {
	case exc.ThreadKilled, exc.Timeout, exc.UserInterrupt, exc.DivideByZero,
		exc.StackOverflow, exc.BlockedIndefinitely:
		name = e.ExceptionName()
	case exc.ErrorCall:
		name, payload = "ErrorCall", v.Msg
	case exc.PatternMatchFail:
		name, payload = "PatternMatchFail", v.Loc
	case exc.IOError:
		name, payload = "IOError", v.Op+sep+v.Msg
	case exc.Dyn:
		name, payload = "Dyn", v.Tag+sep+v.Payload
	case supervise.Shutdown:
		name = "Shutdown"
	case NodeDownError:
		name, payload = "ClusterNodeDown", string(v.Node)
	case ErrLinkDown:
		name, payload = "ClusterLinkDown", string(v.Node)
	case MessageExc:
		name, payload = "ActorMessage", v.Actor+sep+v.Payload
	default:
		name, payload = "Dyn", e.ExceptionName()+sep+e.String()
	}
	return appendStr(appendStr(b, name), payload)
}

func readExc(r *reader) exc.Exception {
	name := r.str()
	payload := r.str()
	if !r.ok || name == "" {
		return nil
	}
	return decodeExc(name, payload)
}

func splitSep(s string) (string, string) {
	for i := 0; i < len(s); i++ {
		if s[i] == sep[0] {
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}

func decodeExc(name, payload string) exc.Exception {
	switch name {
	case "ThreadKilled":
		return exc.ThreadKilled{}
	case "Timeout":
		return exc.Timeout{}
	case "UserInterrupt":
		return exc.UserInterrupt{}
	case "DivideByZero":
		return exc.DivideByZero{}
	case "StackOverflow":
		return exc.StackOverflow{}
	case "BlockedIndefinitelyOnMVar":
		return exc.BlockedIndefinitely{}
	case "ErrorCall":
		return exc.ErrorCall{Msg: payload}
	case "PatternMatchFail":
		return exc.PatternMatchFail{Loc: payload}
	case "IOError":
		op, msg := splitSep(payload)
		return exc.IOError{Op: op, Msg: msg}
	case "Dyn":
		tag, p := splitSep(payload)
		return exc.Dyn{Tag: tag, Payload: p}
	case "Shutdown":
		return supervise.Shutdown{}
	case "ClusterNodeDown":
		return NodeDownError{Node: NodeID(payload)}
	case "ClusterLinkDown":
		return ErrLinkDown{Node: NodeID(payload)}
	case "ActorMessage":
		a, p := splitSep(payload)
		return MessageExc{Actor: a, Payload: p}
	default:
		// Unknown constructor from a newer peer: keep it diagnosable.
		return exc.Dyn{Tag: name, Payload: payload}
	}
}
