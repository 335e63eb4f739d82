package sched

import (
	"fmt"
	"sync"

	"asyncexc/internal/exc"
	"asyncexc/internal/obs"
)

// This file implements first-class promises: an MVar the scheduler
// knows about, following Ahman & Pretnar's asynchronous-effects recipe
// of decoupling *invoking* an operation from *receiving* its result.
// A Promise is a write-once cell settled exactly once — resolved with
// a value, rejected with an exception, or cancelled — and Await parks
// the reader interruptibly at the paper's §5.3 delivery points, just
// like takeMVar.
//
// Awaiters wait in the same waitQ as MVar takers, under p.mu, so the
// cross-shard protocol is MVar's commit-on-pop discipline: settlement
// pops every waiter, committing its wakeup (a direct resume or a
// msgUnpark carrying the outcome), and an interrupt that loses the
// race to the pop leaves its exception pending — the same "right up
// until the point when it acquires the MVar" window as §5.3.
//
// Settlement also drives chains: callbacks attached by the AwaitEither
// / AwaitAll combinators (core layer), run by the settling shard after
// p.mu is released. Resolve-once is exactly first-winner selection:
// chaining two sources into one derived promise makes the first
// settlement win and later ones no-ops.

type promiseState uint8

const (
	promisePending promiseState = iota
	promiseResolved
	promiseCancelled
)

// Promise is a write-once result cell settled at most once. All
// methods on the raw Promise are scheduler primitives (Nodes); user
// code goes through the typed core.Promise wrapper.
type Promise struct {
	id   uint64
	name string

	mu sync.Mutex

	state promiseState
	val   any
	exc   exc.Exception

	// waiters are threads parked in AwaitPromise, woken (all at once)
	// when the promise settles.
	waiters waitQ

	// chains are settlement callbacks (combinator plumbing); each runs
	// exactly once, on the settling shard, after p.mu is released.
	chains []func(rt *RT, v any, e exc.Exception, cancelled bool)

	// producer is the thread computing this promise's value; a
	// cancellation propagates PromiseCancelled to it asynchronously.
	// 0 = no producer registered. A speculation promise has several
	// producers: the first lives here, the rest in extraProducers.
	producer       ThreadID
	extraProducers []ThreadID

	// reap marks a speculation promise (SpeculateNode): the first
	// settlement — whichever producer wins, or a cancellation — sends
	// PromiseCancelled to every registered producer. The winner is
	// already finished by the time it settles, so the throw against it
	// degenerates to the cheap throwTo-dead path.
	reap bool

	// onCancel is the external-cancellation hook (the iomgr closes the
	// underlying socket); run once, after a cancellation settles.
	onCancel func()

	// span is the obs span allocated at creation — the "operation
	// invoke" end of the invoke → resolve → await chain.
	span uint64
}

// ID returns the promise's unique identifier within its runtime.
func (p *Promise) ID() uint64 { return p.id }

// Name returns the promise's debug name, if any.
func (p *Promise) Name() string { return p.name }

// String renders the promise for traces.
func (p *Promise) String() string {
	if p.name != "" {
		return fmt.Sprintf("promise:%s", p.name)
	}
	return fmt.Sprintf("promise#%d", p.id)
}

// newPromise allocates a promise inside the scheduler. Promise ids
// share the MVar id counter (both only need uniqueness).
func (rt *RT) newPromise(name string) *Promise {
	p := &Promise{id: rt.eng.nextMVarID.Add(1), name: name, span: rt.obsNewSpan()}
	rt.stats.PromisesCreated++
	return p
}

// NewPromiseNode creates a promise from a running thread.
func NewPromiseNode(name string) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{rt.newPromise(name)}, false
	}}
}

// SettlePromise performs the single state transition of a promise:
// pending → resolved (cancelled=false) or pending → cancelled. It
// reports whether this call won — a promise settles exactly once, and
// losers observe false. Must run inside the scheduler (any shard; the
// transition itself is guarded by p.mu); ChainPromise callbacks use it
// to settle derived promises from inside a source's settlement.
func (rt *RT) SettlePromise(p *Promise, v any, e exc.Exception, cancelled bool) bool {
	return rt.settle(p, v, e, cancelled, nil)
}

// settle is SettlePromise plus, for detachParked, a thread parked on p
// to detach: the call wins only by removing it from p's waiters in the
// same critical section, and loses if a settlement popped it first.
func (rt *RT) settle(p *Promise, v any, e exc.Exception, cancelled bool, detach *Thread) bool {
	p.mu.Lock()
	if p.state != promisePending || detach != nil && !p.waiters.remove(detach) {
		p.mu.Unlock()
		return false
	}
	if cancelled {
		p.state = promiseCancelled
		p.exc = exc.PromiseCancelled{}
	} else {
		p.state = promiseResolved
		p.val = v
		p.exc = e
	}
	waiters := p.waiters
	p.waiters = nil
	chains := p.chains
	p.chains = nil
	hook := p.onCancel
	p.onCancel = nil
	rv, re := p.val, p.exc
	var reap []ThreadID
	if p.reap {
		if p.producer != 0 {
			reap = append(p.extraProducers, p.producer)
		}
		p.producer = 0
		p.extraProducers = nil
	}
	p.mu.Unlock()
	// The resolve event is recorded before any waiter wakes, so every
	// KindAwait's sequence number lands after its KindPromiseResolve.
	rt.obsPromiseResolve(p, re, cancelled)
	if cancelled {
		rt.stats.PromisesCancelled++
	} else {
		rt.stats.PromisesResolved++
	}
	for _, w := range waiters {
		// The pop committed the waiter's observation of the outcome, so
		// the settling shard records it, whichever shard owns the waiter.
		rt.obsAwait(w.id, uint8(w.mask), p.span, p.id, cancelled)
		rt.stats.Awaits++
		rt.deliverUnpark(w, rv, re)
	}
	for _, fn := range chains {
		fn(rt, rv, re, cancelled)
	}
	// A speculation promise reaps its producers on first settlement:
	// the losers (parked or still computing) receive PromiseCancelled,
	// the winner has already finished and absorbs a throwTo-dead no-op.
	for _, tid := range reap {
		rt.post(0, obs.MaskUnknown, tid, exc.PromiseCancelled{})
	}
	if cancelled && hook != nil {
		hook()
	}
	return true
}

// ResolvePromise settles p with value v; returns whether this call won
// the resolve-once race (false: p was already settled).
func ResolvePromise(p *Promise, v any) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{rt.SettlePromise(p, v, nil, false)}, false
	}}
}

// ResolvePromiseExc settles p with a rejection exception; awaiters see
// it raised at their await site.
func ResolvePromiseExc(p *Promise, e exc.Exception) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{rt.SettlePromise(p, nil, e, false)}, false
	}}
}

// CancelPromise cancels p: awaiters observe PromiseCancelled, the
// registered producer (if any, and not the canceller itself) receives
// a PromiseCancelled asynchronous exception, and the external-cancel
// hook runs. Returns whether this call won the settle race.
func CancelPromise(p *Promise) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		won := rt.SettlePromise(p, nil, nil, true)
		if won && !p.reap {
			// Reap promises tear their producers down inside the
			// settlement itself; for ordinary promises the canceller
			// propagates to the single registered producer here.
			if prod := p.producer; prod != 0 && prod != t.id {
				rt.post(t.id, uint8(t.mask), prod, exc.PromiseCancelled{})
			}
		}
		return retNode{won}, false
	}}
}

// AsyncNode forks body as a producer thread of a fresh promise and
// returns the promise (as *Promise) immediately. The producer's exit
// settles the promise — a normal return resolves it, an unwound
// exception (synchronous or asynchronous) rejects it — so no catch
// frame, resolve node, or producer-registration node is spent per
// spawn, and there is no install window at all: the thread is a
// registered producer from the instant it exists. The child inherits
// the forker's mask, per the revised (Fork) rule; callers wanting the
// Async contract of an unmasked body pass an Unblock-wrapped node.
func AsyncNode(name string, body Node) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		p := rt.newPromise(name)
		child := rt.newThread(body, name, t.mask)
		child.settle = p
		p.producer = child.id
		rt.publish(child, t.id)
		return retNode{p}, false
	}}
}

// SpeculateNode is the fused speculative fan-out: it creates one
// shared reap-on-settle promise, forks every body as a producer of it,
// and parks the calling thread awaiting the first settlement.
// Resolve-once IS winner selection — the first producer to finish
// resolves the promise, and the settlement reaps the rest with
// PromiseCancelled. No derived promise, no settlement chains, and no
// kill-and-respawn: the §7.2 pattern of nested racing pairs is
// replaced by one scheduler object. The await is interruptible per
// §5.3; if the caller is torn down while parked, its detach
// cancels the promise, which reaps every producer — no thread leaks.
// The caller's mask is inherited by the producers; bodies are
// Unblock-wrapped by the core layer so alternatives run unmasked.
func SpeculateNode(name string, bodies []Node) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		p := rt.newPromise(name)
		p.reap = true
		// Register every producer before publishing any: a published
		// child may win and settle — reaping the registered set — while
		// its siblings are still being constructed.
		children := make([]*Thread, len(bodies))
		for i, body := range bodies {
			child := rt.newThread(body, name, t.mask)
			child.settle = p
			children[i] = child
			if p.producer == 0 {
				p.producer = child.id
			} else {
				p.extraProducers = append(p.extraProducers, child.id)
			}
		}
		for _, child := range children {
			rt.publish(child, t.id)
		}
		return rt.awaitPromise(t, p, p)
	}}
}

// AwaitPromise blocks until p settles: a resolved promise's value is
// returned, a rejection or cancellation is raised at the await site.
// An already-settled promise returns immediately — per §5.3's careful
// wording, an operation whose resource is "always available" is not an
// interruption point — while the about-to-wait case raises pending
// asynchronous exceptions first, exactly like takeMVar.
func AwaitPromise(p *Promise) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return rt.awaitPromise(t, p, nil)
	}}
}

// awaitPromise is AwaitPromise's step. cancel is nil or p itself: the
// park record's cancel, which an awaiter interrupted away cancels, so a
// torn-down SpeculateNode or LaunchAwait leaks no producer or result.
func (rt *RT) awaitPromise(t *Thread, p, cancel *Promise) (Node, bool) {
	p.mu.Lock()
	if p.state == promisePending {
		p.mu.Unlock()
		// Pending: the thread is about to become stuck, so await is an
		// interruptible operation (§5.3). Abandoning the await here is
		// the same teardown as an interrupt while parked: p is
		// cancelled.
		if n, interrupted := t.raisePendingForPark(); interrupted {
			if cancel != nil {
				rt.SettlePromise(cancel, nil, nil, true)
			}
			return n, false
		}
		p.mu.Lock()
	}
	if p.state != promisePending {
		// Settled — possibly in the unlock gap by another shard.
		v, e, cancelled := p.val, p.exc, p.state == promiseCancelled
		p.mu.Unlock()
		rt.obsAwait(t.id, uint8(t.mask), p.span, p.id, cancelled)
		rt.stats.Awaits++
		return outcome(v, e), false
	}
	rt.park(t, parkInfo{kind: parkPromise, q: &p.waiters, mu: &p.mu, id: p.id, cancel: cancel})
	p.mu.Unlock()
	rt.stats.AwaitParks++
	return nil, true
}

// TryAwaitPromise is the non-parking probe: TryResult{Ok:true} with
// the value when resolved; a rejection/cancellation is raised; Ok
// false while pending.
func TryAwaitPromise(p *Promise) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		p.mu.Lock()
		st, v, e := p.state, p.val, p.exc
		p.mu.Unlock()
		if st == promisePending {
			return retNode{TryResult{}}, false
		}
		rt.obsAwait(t.id, uint8(t.mask), p.span, p.id, st == promiseCancelled)
		rt.stats.Awaits++
		if e != nil {
			return throwNode{e}, false
		}
		return retNode{TryResult{Value: v, OK: true}}, false
	}}
}

// ChainPromise attaches a settlement callback: fn runs exactly once,
// inside the scheduler on the settling shard (immediately, when p has
// already settled). It is combinator plumbing — fn must not block and
// must confine itself to scheduler-safe operations (settling other
// promises is the intended use).
func ChainPromise(p *Promise, fn func(rt *RT, v any, e exc.Exception, cancelled bool)) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		p.mu.Lock()
		if p.state == promisePending {
			p.chains = append(p.chains, fn)
			p.mu.Unlock()
			return unitRet, false
		}
		v, e, cancelled := p.val, p.exc, p.state == promiseCancelled
		p.mu.Unlock()
		fn(rt, v, e, cancelled)
		return unitRet, false
	}}
}

// LaunchPromise starts external work (a goroutine-backed I/O
// operation) and returns its promise immediately — the iomgr rewire
// that lets completions resolve promises instead of parking threads.
// start runs inside the step and must return quickly after spawning
// the real work; the completion callback may be called from any
// goroutine, at most once. The returned cancel hook (may be nil) runs
// if the promise is cancelled first; a completion that then loses the
// settle race goes to dropped (may be nil) so late results — an
// accepted connection, say — are reclaimed instead of leaked.
// Outstanding work is counted until the completion is applied, so the
// virtual clock cannot advance past it and the deadlock detector knows
// a completion is still possible.
func LaunchPromise(name string, start func(complete func(v any, e exc.Exception)) (cancel func()), dropped func(v any, e exc.Exception)) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		return retNode{rt.launchPromise(name, start, dropped)}, false
	}}
}

// LaunchAwait is LaunchPromise followed by an await of its promise, in
// one step: invoking the operation and receiving its result are one
// scheduler primitive, with no delivery point between them. A pending
// interruptible exception is raised before anything starts; once the
// operation is launched, an interrupt that detaches the parked waiter
// cancels the promise in the same critical section (as SpeculateNode's
// does), so the cancel hook runs and a late result always reaches
// dropped. The wait is interruptible exactly when an MVar take would
// be: under Unmasked and Block, not under BlockUninterruptible.
func LaunchAwait(name string, start func(complete func(v any, e exc.Exception)) (cancel func()), dropped func(v any, e exc.Exception)) Node {
	return primNode{func(rt *RT, t *Thread) (Node, bool) {
		if n, interrupted := t.raisePendingForPark(); interrupted {
			return n, false
		}
		p := rt.launchPromise(name, start, dropped)
		return rt.awaitPromise(t, p, p)
	}}
}

// launchPromise creates p, starts the external work and installs its
// cancel hook: the body of LaunchPromise and LaunchAwait.
func (rt *RT) launchPromise(name string, start func(complete func(v any, e exc.Exception)) (cancel func()), dropped func(v any, e exc.Exception)) *Promise {
	p := rt.newPromise(name)
	rt.eng.outstandingIO.Add(1)
	var once sync.Once
	complete := func(v any, ex exc.Exception) {
		once.Do(func() {
			rt.External(func(rt *RT) {
				rt.eng.outstandingIO.Add(-1)
				if !rt.SettlePromise(p, v, ex, false) && dropped != nil {
					dropped(v, ex)
				}
			})
		})
	}
	cancel := start(complete)
	if cancel != nil {
		p.mu.Lock()
		if p.state == promisePending {
			p.onCancel = cancel
		}
		p.mu.Unlock()
		// Settled before the hook landed: the completion beat us
		// (cancellation is impossible — p was not yet visible).
	}
	return p
}
