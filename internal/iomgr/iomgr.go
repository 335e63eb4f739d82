// Package iomgr is the I/O manager: it bridges blocking Go calls onto
// the green-thread scheduler so that real input/output behaves like the
// paper's operations — a thread waiting for the outside world is stuck
// and interruptible (rules Stuck GetChar / Interrupt), while the rest
// of the system keeps running.
//
// A call that must wait runs on its own goroutine; completion resolves
// a first-class promise (docs/PROMISES.md) through sched.External,
// which rides shard 0's mailbox. Launch returns that promise at once, so
// a green thread can issue several operations and await them later
// (pipelined I/O); Do launches and awaits in one interruptible
// scheduler step. An interrupted wait optionally runs a cancel hook (to
// unblock the goroutine, e.g. by closing a socket) and a cleanup hook
// for results that arrive after the waiter has gone (to avoid leaking
// accepted connections).
//
// A Conn operation that can finish now takes no door: buffered bytes,
// or one nonblocking read or write that succeeds (Unix sockets), finish
// in the calling step with no goroutine, event or park — like taking a
// full MVar (§5.3), no interruption point. Only the remainder waits.
//
// Programs doing real I/O should run on a RealClock runtime: the
// virtual clock only advances when no external work is outstanding.
package iomgr

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"syscall"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
	"asyncexc/internal/sched"
)

// Launch starts f on a goroutine and returns a promise of its result
// immediately — the calling green thread keeps running and can issue
// more operations before awaiting any of them (pipelined I/O). A
// non-nil error from f rejects the promise with an IOError tagged
// with name, raised at the Await site. The underlying Go call is not
// cancellable — use LaunchCancel when there is a way to unblock it.
func Launch[A any](name string, f func() (A, error)) core.IO[core.Promise[A]] {
	return LaunchCancel(name, f, nil, nil)
}

// LaunchCancel is Launch with hooks: cancel (may be nil) runs when the
// promise is cancelled and should unblock f (close the socket);
// dropped (may be nil) receives f's result if it arrives after the
// promise was cancelled, so late results — an accepted connection,
// say — are reclaimed instead of leaked.
func LaunchCancel[A any](name string, f func() (A, error), cancel func(), dropped func(A)) core.IO[core.Promise[A]] {
	start, drop := hooks(name, f, cancel, dropped)
	return core.FromNode[core.Promise[A]](sched.Bind(sched.LaunchPromise(name, start, drop), func(v any) sched.Node {
		return sched.Return(core.PromiseFromRaw[A](v.(*sched.Promise)))
	}))
}

// hooks adapts f, cancel and dropped to the scheduler's untyped launch
// hooks: start runs f on a goroutine and returns cancel, and drop hands
// a late successful result to dropped.
func hooks[A any](name string, f func() (A, error), cancel func(), dropped func(A)) (
	start func(complete func(v any, e exc.Exception)) func(), drop func(v any, e exc.Exception)) {
	start = func(complete func(v any, e exc.Exception)) func() {
		go func() {
			v, err := f()
			complete(v, exc.FromError(name, err))
		}()
		return cancel
	}
	drop = func(v any, e exc.Exception) {
		if dropped == nil || e != nil {
			return
		}
		if a, ok := v.(A); ok {
			dropped(a)
		}
	}
	return start, drop
}

// Do runs f on a goroutine and waits for it, like Launch followed by
// Await but in one scheduler step. A non-nil error is raised as an IOError tagged with name. The wait
// is interruptible, but the underlying Go call is not cancelled — use
// DoCancel when there is a way to unblock it.
func Do[A any](name string, f func() (A, error)) core.IO[A] {
	return DoCancel(name, f, nil, nil)
}

// DoCancel is Do with hooks: cancel (may be nil) is invoked when the
// waiting thread is interrupted and should unblock f; dropped (may be
// nil) receives f's result if it arrives after the waiter has gone.
//
// The launch and the wait are one scheduler step (sched.LaunchAwait),
// so no exception can land between them: an interrupt either arrives
// before f starts, or it cancels the promise at the moment it detaches
// the waiter — running cancel and routing any later result to dropped
// — and then propagates. The wait is interruptible like takeMVar's:
// under Block, but not under BlockUninterruptible.
func DoCancel[A any](name string, f func() (A, error), cancel func(), dropped func(A)) core.IO[A] {
	start, drop := hooks(name, f, cancel, dropped)
	return core.FromNode[A](sched.LaunchAwait(name, start, drop))
}

// ---------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------

// Listener wraps a net.Listener for use from green threads.
type Listener struct{ L net.Listener }

// Listen opens a TCP listener.
func Listen(network, addr string) core.IO[*Listener] {
	return Do("listen", func() (*Listener, error) {
		l, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		return &Listener{L: l}, nil
	})
}

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr { return l.L.Addr() }

// Accept waits for a connection. Interrupting the accepting thread
// closes the listener (the standard way to unblock Accept); a
// connection that arrives after the waiter has gone is closed rather
// than leaked.
func (l *Listener) Accept() core.IO[*Conn] {
	return DoCancel("accept",
		func() (*Conn, error) {
			c, err := l.L.Accept()
			if err != nil {
				return nil, err
			}
			return NewConn(c), nil
		},
		func() { l.L.Close() }, //nolint:errcheck // best-effort unblock
		func(c *Conn) { c.C.Close() },
	)
}

// Close closes the listener; idempotent (a second close is a no-op,
// which matters because interrupting an Accept also closes it). It
// does not wait.
func (l *Listener) Close() core.IO[core.Unit] {
	return core.Lift(func() core.Unit { l.L.Close(); return core.UnitValue }) //nolint:errcheck // idempotent close
}

// Conn wraps a net.Conn with a buffered reader for line-oriented
// protocols. It takes one reader and one writer at a time.
type Conn struct {
	C      net.Conn
	R      *bufio.Reader
	rd, wr rawIO // the socket's nonblocking read and write
	now    bool  // R's next read of C is one nonblocking read
}

// source is the Conn as R's reader: it reads C, or with now set makes
// one nonblocking read of the socket (rd) that fails, not waits.
type source Conn

var errNotNow = errors.New("iomgr: would wait")

func (s *source) Read(p []byte) (int, error) {
	if !s.now {
		return s.C.Read(p)
	}
	if n, ok := s.rd.try(p); ok {
		return n, nil
	}
	return 0, errNotNow
}

// NewConn wraps an accepted or dialed connection.
func NewConn(c net.Conn) *Conn {
	cn := &Conn{C: c}
	if sc, ok := c.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			cn.rd.bind(rc, false)
			cn.wr.bind(rc, true)
		}
	}
	cn.R = bufio.NewReader((*source)(cn))
	return cn
}

// Dial opens a TCP connection.
func Dial(network, addr string) core.IO[*Conn] {
	return Do("dial", func() (*Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return NewConn(c), nil
	})
}

// tryDoor is every Conn read and write. op(true, zero) tries to finish
// in the calling step without waiting, so it is no interruption point;
// what it cannot finish, op(false, partial) completes from its partial
// result behind DoCancel's door, where an interrupt closes the
// connection.
func tryDoor[A any](c *Conn, name string, op func(now bool, partial A) (A, bool, error)) core.IO[A] {
	return core.FromNode[A](sched.Delay(func() sched.Node {
		var zero A
		a, done, _ := op(true, zero)
		if done {
			return sched.Return(a)
		}
		return DoCancel(name, func() (A, error) {
			a, _, err := op(false, a)
			return a, err
		}, c.closeQuietly, nil).Node()
	}))
}

// fillNow makes one nonblocking read into R's buffer, reporting whether
// it brought bytes.
func (c *Conn) fillNow() bool {
	c.now = true
	_, err := c.R.Peek(c.R.Buffered() + 1)
	c.now = false
	return err == nil
}

// hasLine reports whether R's buffer holds a whole line.
func (c *Conn) hasLine() bool {
	b, _ := c.R.Peek(c.R.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// ReadLine reads one newline-terminated line (without the terminator),
// at once when it is buffered or one nonblocking read completes it.
// Interrupting a reader that waits closes the connection, which is the
// reaping behaviour the timeout-driven server wants.
func (c *Conn) ReadLine() core.IO[string] {
	return tryDoor(c, "readLine", func(now bool, _ string) (string, bool, error) {
		if now && !c.hasLine() && !(c.fillNow() && c.hasLine()) {
			return "", false, nil
		}
		s, err := c.R.ReadString('\n')
		return trimEOL(s), true, err
	})
}

// Read reads up to n bytes into a fresh buffer, at once when bytes are
// buffered or one nonblocking read brings some.
func (c *Conn) Read(n int) core.IO[[]byte] {
	return tryDoor(c, "read", func(now bool, _ []byte) ([]byte, bool, error) {
		if now && c.R.Buffered() == 0 && !c.fillNow() {
			return nil, false, nil
		}
		buf := make([]byte, n)
		k, err := c.R.Read(buf)
		return buf[:k], true, err
	})
}

// Write writes all of data: one nonblocking write, then a wait for the
// socket to take what that left.
func (c *Conn) Write(data []byte) core.IO[int] {
	return tryDoor(c, "write", func(now bool, sent int) (int, bool, error) {
		if now {
			n, _ := c.wr.try(data)
			return n, n == len(data), nil
		}
		n, err := c.C.Write(data[sent:])
		return sent + n, true, err
	})
}

// WriteString writes a string.
func (c *Conn) WriteString(s string) core.IO[int] { return c.Write([]byte(s)) }

// Close closes the connection; safe to call twice. It does not wait.
func (c *Conn) Close() core.IO[core.Unit] {
	return core.Lift(func() core.Unit { c.closeQuietly(); return core.UnitValue })
}

func (c *Conn) closeQuietly() { c.C.Close() } //nolint:errcheck // idempotent close

func trimEOL(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}
