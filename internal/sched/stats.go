package sched

// Stats counts scheduler events. The counters double as rule-firing
// counts when comparing the runtime against the executable semantics,
// and feed the tables produced by cmd/axbench.
type Stats struct {
	// Steps is the total number of interpreter steps executed.
	Steps uint64
	// Forks counts forkIO calls.
	Forks uint64
	// ThreadsFinished counts threads that ran to completion or died
	// with an uncaught exception.
	ThreadsFinished uint64
	// Uncaught counts threads that died with an uncaught exception
	// (rule Throw GC).
	Uncaught uint64

	// MVarsCreated, MVarTakes, MVarPuts count MVar operations that
	// completed; MVarTakeParks/MVarPutParks count the ones that had to
	// wait (rules Stuck TakeMVar / Stuck PutMVar).
	MVarsCreated  uint64
	MVarTakes     uint64
	MVarPuts      uint64
	MVarTakeParks uint64
	MVarPutParks  uint64

	// Sleeps counts sleep parks.
	Sleeps uint64

	// ThrowTos counts exceptions placed in flight: throwTo calls,
	// environment and cluster interrupts, promise cancellations and
	// speculation reaping — every exception that enters the interrupt
	// queue except the deadlock detector's. ThrowToDead counts the ones
	// that reached no live thread: the target had finished at the
	// throw, at the delivery, or with the exception still queued
	// (trivial success, §5). Every other one is Delivered, withdrawn by
	// its interrupted §9 thrower, or still queued when the program ends.
	ThrowTos    uint64
	ThrowToDead uint64
	// Killed counts threads that died with an uncaught ThreadKilled —
	// the KillThread idiom landing, as distinct from other uncaught
	// exceptions. Supervision soak runs use it to audit kill volume.
	Killed uint64
	// SupervisorRestarts counts child restarts performed by
	// internal/supervise supervisors (bumped through NoteRestartNamed).
	SupervisorRestarts uint64
	// Delivered counts asynchronous exceptions actually raised in
	// their target (rules Receive and Interrupt); Interrupts counts
	// the subset that interrupted a stuck thread (rule Interrupt).
	Delivered  uint64
	Interrupts uint64

	// MaskEnters counts block/unblock scope entries that changed the
	// state; MaskFramesCancelled counts §8.1 frame cancellations.
	MaskEnters          uint64
	MaskFramesCancelled uint64

	// CatchesInstalled counts catch frames pushed; Handled counts
	// handlers entered (rule Catch).
	CatchesInstalled uint64
	Handled          uint64

	// Preemptions counts exhausted time slices.
	Preemptions uint64
	// Deadlocks counts deadlock-detector firings.
	Deadlocks uint64
	// TimeAdvances counts virtual-clock jumps.
	TimeAdvances uint64

	// Shed counts admissions refused by resilience layers (bulkhead
	// full, watermark crossed): work turned away instead of queued.
	Shed uint64
	// Retries counts attempts re-run by resilience retry policies
	// (bumped through NoteRetry; the first attempt is not a retry).
	Retries uint64
	// BreakerOpen counts circuit-breaker trips (closed/half-open →
	// open transitions), not individual fast-fail rejections.
	BreakerOpen uint64
	// DeadlineExpired counts WithDeadline budgets that ran out.
	DeadlineExpired uint64

	// ActorSends counts messages enqueued into actor mailboxes
	// (bumped through NoteActorSend; batch sends count every message).
	ActorSends uint64
	// ActorDeliveries counts messages dequeued at actor receive
	// points (bumped through NoteActorDeliver). ActorSends minus
	// ActorDeliveries is the messages still queued — soak runs use
	// the difference to audit for lost mail.
	ActorDeliveries uint64
	// ActorHandled counts messages an actor handler completed
	// (bumped through NoteActorHandle).
	ActorHandled uint64

	// PromisesCreated counts promises allocated; PromisesResolved and
	// PromisesCancelled count settlements (their sum never exceeds
	// PromisesCreated: resolve-once). Awaits counts outcomes observed
	// by awaiters (immediately or after parking); AwaitParks counts
	// the subset that had to park. Under Options.SyncThrowTo each
	// synchronous throwTo also counts one promise created (its
	// receipt) and one resolved (delivered, plus one Await) or
	// cancelled (withdrawn); AwaitParks is unaffected.
	PromisesCreated   uint64
	PromisesResolved  uint64
	PromisesCancelled uint64
	Awaits            uint64
	AwaitParks        uint64

	// SignalsSent counts SignalTo calls, dead targets included;
	// SignalsDelivered counts
	// handlers actually spliced in; SignalsDropped counts signals
	// discarded (dead target, no registered handler at the delivery
	// point, or queued at thread death — a handler never runs on an
	// unwound stack).
	SignalsSent      uint64
	SignalsDelivered uint64
	SignalsDropped   uint64

	// Steals counts threads this shard stole from siblings' run queues
	// (always 0 with one shard).
	Steals uint64
	// CrossShardThrowTo counts the ThrowTos whose target was owned by
	// another shard when the exception was placed in flight, so it
	// travelled as a mailbox message. Signals are not counted.
	CrossShardThrowTo uint64
	// MailboxDepth is the high-water mark of this shard's mailbox (a
	// gauge, not a counter: Add takes the max).
	MailboxDepth uint64
}

// Add accumulates o into s field-by-field; used to aggregate per-shard
// counters. MailboxDepth, a high-water gauge, takes the max instead of
// the sum.
func (s *Stats) Add(o Stats) {
	s.Steps += o.Steps
	s.Forks += o.Forks
	s.ThreadsFinished += o.ThreadsFinished
	s.Uncaught += o.Uncaught
	s.MVarsCreated += o.MVarsCreated
	s.MVarTakes += o.MVarTakes
	s.MVarPuts += o.MVarPuts
	s.MVarTakeParks += o.MVarTakeParks
	s.MVarPutParks += o.MVarPutParks
	s.Sleeps += o.Sleeps
	s.ThrowTos += o.ThrowTos
	s.ThrowToDead += o.ThrowToDead
	s.Killed += o.Killed
	s.SupervisorRestarts += o.SupervisorRestarts
	s.Delivered += o.Delivered
	s.Interrupts += o.Interrupts
	s.MaskEnters += o.MaskEnters
	s.MaskFramesCancelled += o.MaskFramesCancelled
	s.CatchesInstalled += o.CatchesInstalled
	s.Handled += o.Handled
	s.Preemptions += o.Preemptions
	s.Deadlocks += o.Deadlocks
	s.TimeAdvances += o.TimeAdvances
	s.Shed += o.Shed
	s.Retries += o.Retries
	s.BreakerOpen += o.BreakerOpen
	s.DeadlineExpired += o.DeadlineExpired
	s.ActorSends += o.ActorSends
	s.ActorDeliveries += o.ActorDeliveries
	s.ActorHandled += o.ActorHandled
	s.PromisesCreated += o.PromisesCreated
	s.PromisesResolved += o.PromisesResolved
	s.PromisesCancelled += o.PromisesCancelled
	s.Awaits += o.Awaits
	s.AwaitParks += o.AwaitParks
	s.SignalsSent += o.SignalsSent
	s.SignalsDelivered += o.SignalsDelivered
	s.SignalsDropped += o.SignalsDropped
	s.Steals += o.Steals
	s.CrossShardThrowTo += o.CrossShardThrowTo
	if o.MailboxDepth > s.MailboxDepth {
		s.MailboxDepth = o.MailboxDepth
	}
}
