package resilience

import (
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/sched"
)

// Deadline is a point on the runtime clock by which work must finish.
// The zero value means "no limit". Deadlines form a hierarchy: a child
// deadline derived with WithDeadline never extends past its parent, so
// an outer budget bounds everything beneath it no matter what budgets
// the inner layers ask for.
type Deadline struct {
	// HasLimit distinguishes a real deadline from the zero value.
	HasLimit bool
	// ExpiresAt is the expiry instant in core.Now nanoseconds.
	ExpiresAt int64
}

// NoDeadline returns the unlimited deadline.
func NoDeadline() Deadline { return Deadline{} }

// At returns a deadline expiring at the given core.Now instant.
func At(expiresAt int64) Deadline { return Deadline{HasLimit: true, ExpiresAt: expiresAt} }

// Clamp returns the tighter of d and a budget starting at now: the
// inner-≤-outer rule as a pure function.
func (d Deadline) Clamp(now int64, budget time.Duration) Deadline {
	exp := now + budget.Nanoseconds()
	if d.HasLimit && d.ExpiresAt < exp {
		exp = d.ExpiresAt
	}
	return Deadline{HasLimit: true, ExpiresAt: exp}
}

// Remaining returns the time left before d at the instant now; the
// second result is false when d has no limit. A non-positive duration
// means the deadline has already passed.
func (d Deadline) Remaining(now int64) (time.Duration, bool) {
	if !d.HasLimit {
		return 0, false
	}
	return time.Duration(d.ExpiresAt - now), true
}

// Expired reports whether d has passed at the instant now.
func (d Deadline) Expired(now int64) bool {
	return d.HasLimit && d.ExpiresAt <= now
}

func noteDeadlineExpired() core.IO[core.Unit] {
	return core.FromNode[core.Unit](sched.NoteDeadlineExpired())
}

// WithDeadline runs body under the tighter of budget-from-now and the
// parent deadline, passing the effective child deadline down so nested
// layers can clamp to it in turn. Expiry raises ErrDeadlineExceeded in
// the caller; the body is cancelled by the paper's timeout mechanism —
// a masked-safe throwTo from core.Timeout once the deadline on its wait
// passes — so its brackets and Finally cleanups all run. A body exception is rethrown as itself:
// callers can always tell "it was too slow" from "it failed".
func WithDeadline[A any](parent Deadline, budget time.Duration, body func(Deadline) core.IO[A]) core.IO[A] {
	return core.Bind(core.Now(), func(now int64) core.IO[A] {
		child := parent.Clamp(now, budget)
		left, _ := child.Remaining(now)
		if left <= 0 {
			// The parent already spent everything: fail without running.
			return core.Then(noteDeadlineExpired(), core.Throw[A](ErrDeadlineExceeded))
		}
		return core.Bind(core.TryTimeout(left, body(child)), func(r core.TimeoutResult[A]) core.IO[A] {
			switch {
			case r.Expired:
				return core.Then(noteDeadlineExpired(), core.Throw[A](ErrDeadlineExceeded))
			case r.Exc != nil:
				return core.Throw[A](r.Exc)
			default:
				return core.Return(r.Value)
			}
		})
	})
}
