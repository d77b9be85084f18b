package runtime

// The deterministic simulation substrate (DESIGN.md §9). Where the
// asynchronous substrates hand scheduling to the Go runtime — making
// every interleaving bug a one-off — simSubstrate owns it: a
// single-threaded scheduler picks the next runnable task
// pseudo-randomly from the run set with a seeded generator, and a
// virtual clock advances only when messages are dispatched. One seed
// therefore reproduces one exact interleaving (same picks, same
// dispatch order, same virtual timestamps, byte-identical results), and
// a seed sweep explores thousands of schedules the real substrates
// would need days of wall time and luck to hit. Faults are injected the
// same way: a Stall hook vetoes picks deterministically, so a task
// stall, source hiccup, or credit starvation found at seed k is
// replayed from seed k forever.
//
// The substrate is single-threaded by contract: Ingest, Drain, and
// Stop must be called from one goroutine, like SubstrateSynchronous.

import (
	"clash/internal/rng"
	"clash/internal/topology"
)

// SimConfig tunes the deterministic simulation substrate.
type SimConfig struct {
	// Seed drives the schedule: every scheduler pick draws from a
	// splitmix64 generator seeded with it. Identical seeds (and
	// identical inputs) reproduce identical interleavings; different
	// seeds explore different ones.
	Seed uint64
	// MailboxCredits enables flow-control modeling, mirroring
	// FlowConfig: each task grants this many credits at spawn (and
	// withdraws them when its store retires), sends consume them,
	// dispatches repay them, and admission is gated on a positive
	// balance. Under BlockOnOverload a starved producer "waits"
	// by running the scheduler until credit frees — the deterministic
	// analogue of blocking at the flow substrate's admission gate. 0
	// disables the model (unbounded queueing, like an unexhaustible
	// FlowConfig grant).
	MailboxCredits int
	// Policy selects the overload behaviour when MailboxCredits > 0.
	Policy OverloadPolicy
	// OnEvent, when set, observes every scheduling decision in order —
	// the schedule trace. Recording it and byte-comparing two runs is
	// how replay divergence is detected (internal/sim).
	OnEvent func(SimEvent)
	// Stall, when set, is consulted before each dispatch: returning
	// true vetoes the pick — the task stays runnable, a stall event is
	// traced, and the scheduler draws again. This is the fault-injection
	// hook (task stalls, simulated GC pauses, slow partitions). The hook
	// must be a deterministic function of the event for replays to
	// converge, and must eventually stop vetoing: after simStallBudget
	// consecutive vetoes the scheduler dispatches anyway (a liveness
	// backstop, traced as a normal dispatch).
	Stall func(SimEvent) bool
	// Panic, when set, is consulted before each dispatch: returning
	// true makes the dispatched message panic inside the supervised
	// task-execution path (before any state mutation), exercising the
	// panic supervisor under the deterministic schedule. Like Stall,
	// the hook must be deterministic and must eventually stop firing —
	// a message that panics on every redelivery exhausts the task's
	// restart budget and fails the engine with ErrTaskFailed.
	Panic func(SimEvent) bool
}

// SimEvent is one scheduling decision of the simulation substrate. The
// sequence of events is the schedule trace: two runs of the same seeded
// scenario are equivalent iff their traces are identical element-wise.
type SimEvent struct {
	// Step is the scheduler pick counter (stalled picks count too).
	Step uint64
	// Store and Part identify the picked task.
	Store topology.StoreID
	Part  int
	// Kind is the dispatched message kind (data or prune); unset on a
	// stalled pick.
	Kind int8
	// Queued is the number of messages left in the task's mailbox after
	// the dispatch.
	Queued int
	// VNanos is the virtual time after the dispatch.
	VNanos int64
	// Stalled marks a pick vetoed by the Stall hook (nothing dispatched).
	Stalled bool
}

// simStallBudget bounds consecutive vetoed picks before the scheduler
// ignores the Stall hook — a buggy always-stall hook must not hang the
// simulation.
const simStallBudget = 1 << 20

// simSubstrate implements the substrate interface as a deterministic
// discrete-event scheduler. All state is owned by the single driving
// goroutine; the task.sched flag doubles as run-set membership exactly
// as on the worker pool.
type simSubstrate struct {
	e      *Engine
	cfg    SimConfig
	rng    *rng.RNG
	vclock *VirtualClock
	step   uint64
	depth  int // pump nesting (reentrant sink ingests, nested drains)

	runq []*task // run set: tasks with queued messages, arrival order

	// Flow model (MailboxCredits > 0): plain ints — single-threaded.
	credits int64
	granted int64

	stopped bool
}

// simStepNanos is how far virtual time advances per dispatched message:
// one simulated microsecond.
const simStepNanos = 1000

func newSimSubstrate(e *Engine, cfg SimConfig) *simSubstrate {
	return &simSubstrate{e: e, cfg: cfg, rng: rng.New(cfg.Seed), vclock: &VirtualClock{}}
}

// start grants the task's credits to the pool. No goroutine spawns.
func (s *simSubstrate) start(t *task) {
	t.mailbox = &mailbox{}
	if s.cfg.MailboxCredits > 0 {
		s.granted += int64(s.cfg.MailboxCredits)
		s.credits += int64(s.cfg.MailboxCredits)
	}
}

func (s *simSubstrate) retire(*task) {
	if s.cfg.MailboxCredits > 0 {
		s.granted -= int64(s.cfg.MailboxCredits)
		s.credits -= int64(s.cfg.MailboxCredits)
	}
}

func (s *simSubstrate) send(t *task, msg message) {
	if !t.mailbox.put(msg) {
		s.e.dropUndelivered(&msg)
		return
	}
	if s.cfg.MailboxCredits > 0 {
		s.credits--
	}
	if t.sched.CompareAndSwap(0, 1) {
		s.runq = append(s.runq, t)
	}
}

// admit gates one source tuple under the credit model. A starved
// producer on BlockOnOverload does not block — single-threaded, nobody
// else could free credit — it runs the scheduler until repayments bring
// the balance positive, which is the same fixpoint the real gate waits
// for. Reentrant ingests (a result sink feeding back from inside a
// dispatch) get elastic credit like the flow substrate's workers.
func (s *simSubstrate) admit() bool {
	if s.cfg.MailboxCredits <= 0 || s.credits > 0 || s.stopped || s.depth > 0 {
		return true
	}
	if s.cfg.Policy == ShedOnOverload {
		return false
	}
	s.pump(func() bool { return s.credits > 0 || s.e.Failure() != nil })
	return true
}

// drain runs the scheduler to quiescence: every queued message (and
// every message those dispatches enqueue) is handled, in seeded order.
func (s *simSubstrate) drain() { s.pump(nil) }

// reentrant reports whether the engine was re-entered from inside a
// dispatch (pump frame on the stack) — such ingests must not drain.
func (s *simSubstrate) reentrant() bool { return s.depth > 0 }

func (s *simSubstrate) stop() { s.stopped = true }
func (s *simSubstrate) wake() {}

// pump is the scheduler loop: pick a pseudo-random runnable task,
// dispatch exactly one of its messages (single-message granularity
// maximizes interleaving coverage), advance virtual time, trace the
// decision, repeat — until the run set empties or `until` is satisfied.
// Nested pumps (sink feedback, admission waits) share the run set; the
// in-dispatch message of an outer frame is already off its mailbox, so
// a nested pump never double-dispatches it.
func (s *simSubstrate) pump(until func() bool) {
	s.depth++
	defer func() { s.depth-- }()
	buf := make([]message, 0, 1)
	stalls := 0
	for len(s.runq) > 0 {
		if until != nil && until() {
			return
		}
		i := int(s.rng.Uint64() % uint64(len(s.runq)))
		t := s.runq[i]
		ev := SimEvent{Step: s.step, Store: t.key.store, Part: t.key.part}
		s.step++
		if s.cfg.Stall != nil && stalls < simStallBudget && s.cfg.Stall(ev) {
			stalls++
			ev.Stalled = true
			ev.Queued = t.mailbox.depth()
			ev.VNanos = s.vclock.Now()
			if s.cfg.OnEvent != nil {
				s.cfg.OnEvent(ev)
			}
			continue
		}
		stalls = 0
		var remaining int
		buf, remaining = t.mailbox.drainN(buf[:0], 1)
		if remaining == 0 {
			// Unlink before dispatching: a dispatch that sends to this
			// task must re-enqueue it, and the parked flag makes that
			// re-enqueue visible exactly as on the worker pool.
			s.runq[i] = s.runq[len(s.runq)-1]
			s.runq[len(s.runq)-1] = nil
			s.runq = s.runq[:len(s.runq)-1]
			t.sched.Store(0)
		}
		if len(buf) == 0 {
			continue // closed or raced-empty mailbox; already unlinked
		}
		s.vclock.nanos.Add(simStepNanos)
		ev.Kind = buf[0].kind
		ev.Queued = remaining
		ev.VNanos = s.vclock.Now()
		if s.cfg.OnEvent != nil {
			s.cfg.OnEvent(ev)
		}
		if s.cfg.Panic != nil && s.cfg.Panic(ev) {
			// Arm a one-shot injected panic: dispatchGuarded panics
			// before touching task state, so the supervised redelivery
			// preserves result exactness.
			t.injectPanic = true
		}
		s.e.dispatch(t, &buf[0])
		t.busyNanos.Add(simStepNanos)
		buf[0] = message{}
		if s.cfg.MailboxCredits > 0 {
			s.credits++
		}
	}
}

// creditsAvailable reports the modeled credit balance (Pressure gauge).
func (s *simSubstrate) creditsAvailable() int64 {
	if s.cfg.MailboxCredits <= 0 {
		return 0
	}
	return s.credits
}
