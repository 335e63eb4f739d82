package sched

import (
	"io"
	"sync"
	"unicode/utf8"
)

// console models the paper's standard input/output (§3): putChar
// appends to an output transcript (optionally mirrored to an
// io.Writer), getChar consumes from an input buffer that can be
// extended at any time with InjectInput. A reader that finds the
// buffer empty parks and is stuck (rules GetChar / Stuck GetChar);
// injecting input wakes parked readers in FIFO order.
//
// The console is shared by all shards and mu guards every field;
// readers is a waitQ, so popping a reader commits its wakeup, the same
// discipline as MVar handoff.
type console struct {
	mu      sync.Mutex
	in      []rune
	out     []rune
	mirror  io.Writer
	readers waitQ
	// closed marks the input as finished: parked readers count as
	// deadlocked rather than waiting for the environment.
	closed bool
}

func (c *console) putChar(ch rune) {
	c.mu.Lock()
	c.out = append(c.out, ch)
	mirror := c.mirror
	c.mu.Unlock()
	if mirror != nil {
		var buf [4]byte
		n := utf8.EncodeRune(buf[:], ch)
		mirror.Write(buf[:n]) //nolint:errcheck // transcript mirroring is best-effort
	}
}

// getCharLocked consumes one input character; caller holds mu.
func (c *console) getCharLocked() (rune, bool) {
	if len(c.in) == 0 {
		return 0, false
	}
	ch := c.in[0]
	copy(c.in, c.in[1:])
	c.in = c.in[:len(c.in)-1]
	return ch, true
}

// getCharOrPark services a GetChar step: consume a buffered character
// or park the reader (rules GetChar / Stuck GetChar), raising a pending
// exception first when about to wait (§5.3).
func (rt *RT) getCharOrPark(t *Thread) (Node, bool) {
	c := rt.console
	c.mu.Lock()
	if len(c.in) == 0 {
		c.mu.Unlock()
		if n, interrupted := t.raisePendingForPark(); interrupted {
			return n, false
		}
		c.mu.Lock()
	}
	if ch, ok := c.getCharLocked(); ok {
		c.mu.Unlock()
		return retNode{ch}, false
	}
	rt.park(t, parkInfo{kind: parkGetChar, q: &c.readers, mu: &c.mu})
	c.mu.Unlock()
	return nil, true
}

// waitingReaders reports whether parked getChar readers may still be
// woken by the environment (input not closed); used by the quiescence
// check.
func (c *console) waitingReaders() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && len(c.readers) > 0
}

// InjectInput appends input characters to the console, waking parked
// readers while characters remain. It must be called from the scheduler
// goroutine (directly in tests before RunMain, or via External during a
// run, which routes it to shard 0).
func (rt *RT) InjectInput(s string) {
	c := rt.console
	c.mu.Lock()
	c.in = append(c.in, []rune(s)...)
	type wake struct {
		t  *Thread
		ch rune
	}
	var woken []wake
	for len(c.readers) > 0 && len(c.in) > 0 {
		// Membership in readers implies a live getChar park (interrupts
		// detach under mu), so the pop commits the wakeup.
		t := c.readers.pop()
		ch, _ := c.getCharLocked()
		woken = append(woken, wake{t, ch})
	}
	c.mu.Unlock()
	for _, w := range woken {
		rt.deliverUnpark(w.t, w.ch, nil)
	}
}

// CloseInput marks the console input as exhausted, so readers parked on
// getChar count as deadlocked (no environment event can wake them).
func (rt *RT) CloseInput() {
	c := rt.console
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
}

// Output returns the console output transcript so far.
func (rt *RT) Output() string {
	c := rt.console
	c.mu.Lock()
	defer c.mu.Unlock()
	return string(c.out)
}
