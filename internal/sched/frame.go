package sched

// frame is one entry on a thread's continuation stack. The three frame
// kinds correspond exactly to the implementation design of §8:
//
//   - bindFrame: the continuation of a >>= or >> (pushed by bindNode
//     and thenNode): a Kont applied to the result, or for >> the next
//     node itself, so m >> n needs no closure returning n;
//   - catchFrame: a handler plus the mask state at the time the frame
//     was pushed ("Extend the catch frame to include the state
//     (blocked or unblocked) of asynchronous exceptions at the time
//     when the frame was placed on the stack", §8.1);
//   - maskFrame: the block/unblock frames of §8.1 — returning (or
//     unwinding) through one restores the recorded mask state.
//
// Frames are pointer-shaped so that pushing one onto the stack (a
// []frame of interfaces) does not box a fresh allocation per push:
// bind and catch frames are recycled through per-RT free lists, and
// the three possible mask frames are shared singletons.
type frame interface{ frameKind() string }

type bindFrame struct {
	k Kont
	n Node
}

func (*bindFrame) frameKind() string { return "bind" }

type catchFrame struct {
	h          Handler
	saved      MaskState
	skipAlerts bool
}

func (*catchFrame) frameKind() string { return "catch" }

// maskFrame restores the mask state `restore` when control returns or
// unwinds past it. A maskFrame{restore: Masked} is the paper's "block
// frame"; maskFrame{restore: Unmasked} is its "unblock frame".
type maskFrame struct{ restore MaskState }

func (*maskFrame) frameKind() string { return "mask" }

// The three mask frames are immutable; one shared instance each.
var maskFrames = [3]*maskFrame{
	Unmasked:              {restore: Unmasked},
	Masked:                {restore: Masked},
	MaskedUninterruptible: {restore: MaskedUninterruptible},
}

// freeListCap bounds each per-RT frame free list; beyond it frames are
// dropped for the GC. Stack-segment pooling is bounded separately.
const freeListCap = 1024

func (rt *RT) newBindFrame(k Kont, next Node) *bindFrame {
	if n := len(rt.freeBind); n > 0 {
		f := rt.freeBind[n-1]
		rt.freeBind = rt.freeBind[:n-1]
		f.k, f.n = k, next
		return f
	}
	return &bindFrame{k, next}
}

func (rt *RT) putBindFrame(f *bindFrame) {
	f.k, f.n = nil, nil
	if len(rt.freeBind) < freeListCap {
		rt.freeBind = append(rt.freeBind, f)
	}
}

func (rt *RT) newCatchFrame(h Handler, saved MaskState, skipAlerts bool) *catchFrame {
	if n := len(rt.freeCatch); n > 0 {
		f := rt.freeCatch[n-1]
		rt.freeCatch = rt.freeCatch[:n-1]
		f.h, f.saved, f.skipAlerts = h, saved, skipAlerts
		return f
	}
	return &catchFrame{h: h, saved: saved, skipAlerts: skipAlerts}
}

func (rt *RT) putCatchFrame(f *catchFrame) {
	f.h = nil
	if len(rt.freeCatch) < freeListCap {
		rt.freeCatch = append(rt.freeCatch, f)
	}
}

// getStack hands out a recycled continuation-stack segment (empty, with
// retained capacity) for a new thread, or nil when the pool is dry.
func (rt *RT) getStack() []frame {
	if n := len(rt.freeStacks); n > 0 {
		s := rt.freeStacks[n-1]
		rt.freeStacks = rt.freeStacks[:n-1]
		return s
	}
	return nil
}

// putStack returns a finished thread's (empty) stack segment to the
// pool. Elements were already nil'd by pop.
func (rt *RT) putStack(s []frame) {
	if cap(s) == 0 || len(rt.freeStacks) >= 64 {
		return
	}
	rt.freeStacks = append(rt.freeStacks, s[:0])
}

// enterMask performs the mask-state change for block/unblock with the
// §8.1 frame-cancellation rule:
//
//  1. If the mask state is already `to`, just run the body (no
//     counting of scopes, §5.2).
//  2. Otherwise set the state to `to` and: if the top of the stack is
//     a mask frame that restores `to`, remove it; otherwise push a
//     mask frame restoring the previous state.
//
// Step 2's removal is the optimization that lets
//
//	f = block (do { ...; unblock f })
//
// run in constant stack space: adjacent opposite mask frames cancel
// because no code runs between them, so returning (or unwinding)
// through the pair is a net no-op. The cancellation is disabled by
// Options.DisableFrameCancellation for the E7 ablation benchmark.
func (t *Thread) enterMask(to MaskState, body Node) {
	if t.mask == to {
		t.cur = body
		return
	}
	prev := t.mask
	t.mask = to
	if !t.rt.opts.DisableFrameCancellation {
		if mf, ok := t.top().(*maskFrame); ok && mf.restore == to {
			t.pop()
			t.rt.stats.MaskFramesCancelled++
			t.cur = body
			return
		}
	}
	t.push(maskFrames[prev])
	t.cur = body
}
