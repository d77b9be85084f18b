package runtime

// Execution substrates (DESIGN.md §8). The engine's store/probe logic is
// substrate-independent: every substrate delivers the same messages to
// the same tasks and funnels them through Engine.dispatch, so the
// sequence condition (DESIGN.md §3) guarantees identical result
// multisets on all of them. What a substrate decides is *scheduling and
// flow control*: which goroutine runs a task's work, and what happens
// when producers outrun consumers.
//
//   - syncSubstrate: the whole topology runs on the ingesting goroutine
//     in FIFO order (exact, deterministic; the Fig. 7 substrate).
//   - flowSubstrate: the asynchronous default. Mailbox credits with
//     admission control at the ingest boundary, and a shared worker pool
//     (scheduler.go) that decouples topology size from goroutine count.
//     Overload throttles the source (BlockOnOverload) or drops tuples
//     (ShedOnOverload); a credit grant the run cannot exhaust never
//     gates admission, so workers buffer until MemoryLimitBytes fails
//     the engine — the Fig. 8a failure mode under study.
//   - simSubstrate (sim.go): deterministic simulation — a seeded
//     single-threaded scheduler over a virtual clock; one seed, one
//     exact interleaving.

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
)

// SubstrateKind selects how the engine schedules task work and moves
// messages between tasks.
type SubstrateKind int

const (
	// SubstrateAuto is the zero value and selects SubstrateFlow. The
	// public clash.Config resolves its Synchronous shorthand before the
	// engine sees it.
	SubstrateAuto SubstrateKind = iota
	// SubstrateSynchronous executes the whole topology on the ingesting
	// goroutine: exact, deterministic symmetric-join semantics. Feed it
	// from one goroutine only.
	SubstrateSynchronous
	// SubstrateFlow multiplexes all store tasks onto a fixed worker pool
	// and applies credit-based flow control at the ingest boundary, so
	// sustained overload degrades gracefully (throttle or shed) with
	// bounded queueing. With a MailboxCredits grant the run cannot
	// exhaust, admission never gates and overloaded workers buffer until
	// MemoryLimitBytes fails the engine (the paper's Fig. 8a).
	SubstrateFlow
	// SubstrateSim is the deterministic simulation substrate (sim.go): a
	// single-threaded seeded scheduler over a virtual clock that picks
	// the next runnable task pseudo-randomly, so one seed reproduces one
	// exact interleaving and a seed sweep explores thousands. Feed it
	// from one goroutine only.
	SubstrateSim
)

// OverloadPolicy is what a flow-controlled engine does with an ingested
// tuple when the credit pool is exhausted.
type OverloadPolicy int

const (
	// BlockOnOverload makes Ingest wait for credit: lossless
	// backpressure onto the source, at the source's rate.
	BlockOnOverload OverloadPolicy = iota
	// ShedOnOverload makes Ingest drop the tuple (counted in
	// Snapshot.ShedTuples): lossy, but the engine stays live and fresh
	// tuples keep flowing.
	ShedOnOverload
)

// FlowConfig tunes the flow-controlled substrate.
type FlowConfig struct {
	// MailboxCredits is the number of message credits each task grants
	// the shared pool when it spawns, and withdraws when its store
	// retires — the per-task mailbox bound the admission gate enforces in
	// aggregate over the live tasks (default 256).
	MailboxCredits int
	// Workers sizes the shared worker pool (default GOMAXPROCS).
	Workers int
	// Policy selects the overload behaviour (default BlockOnOverload).
	Policy OverloadPolicy
}

// substrate is the pluggable execution layer behind the engine: message
// delivery, task scheduling, and flow control. Exactly one substrate
// instance exists per engine; all task execution goes through it and
// every delivered message ends in Engine.dispatch — the single
// per-message code path shared by all substrates.
type substrate interface {
	// start attaches a freshly created task (called under e.mu write).
	start(t *task)
	// retire detaches a task whose store was retired, after its retire
	// message was sent: the credits start granted leave with it (called
	// under e.mu write).
	retire(t *task)
	// send delivers an already-accounted message to the task. Never
	// blocks: flow control happens at admit, not here.
	send(t *task, msg message)
	// admit gates one source-side ingest before any engine lock is
	// taken. It returns false when the tuple must be shed.
	admit() bool
	// drain blocks until every queued and in-process message has been
	// handled. No concurrent Ingest may run.
	drain()
	// reentrant reports whether the calling goroutine is one of the
	// substrate's dispatch goroutines — i.e. the engine was re-entered
	// from inside a message handler (a result sink calling Ingest).
	// Such calls must not drain: the in-dispatch message keeps the
	// in-flight count nonzero until the handler's frame returns.
	reentrant() bool
	// stop terminates task execution after the engine has closed all
	// mailboxes; idempotent.
	stop()
	// wake unblocks admission waiters so they can observe a terminal
	// failure or stop.
	wake()
}

// mailbox is a FIFO link between tasks, implemented as a ring buffer so
// steady-state put/drain never shifts elements or reallocates. The ring
// itself is unbounded: occupancy is bounded by the credit protocol, and
// only as far as the credit grant reaches — an unexhaustible grant
// reproduces the paper's observation that overloaded workers buffer
// tuples until memory overflow (Fig. 8a). Consumers never block on it:
// the worker pool (scheduler.go) and the simulation substrate poll it
// with drainN after the send path has scheduled the task.
type mailbox struct {
	mu     sync.Mutex
	buf    []message // ring storage
	head   int       // index of the oldest message
	count  int       // number of buffered messages
	closed bool
}

// put enqueues one message and reports whether the mailbox accepted it.
// A closed mailbox (the engine is stopping) rejects: the caller must
// compensate the message's accounting (Engine.dropUndelivered) or a
// post-stop Drain would wait forever on a message nothing will handle.
func (m *mailbox) put(msg message) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	if m.count == len(m.buf) {
		m.grow()
	}
	m.buf[(m.head+m.count)%len(m.buf)] = msg
	m.count++
	m.mu.Unlock()
	return true
}

// grow doubles the ring, unwrapping it so the oldest message lands at
// index 0. Caller holds m.mu.
func (m *mailbox) grow() {
	n := len(m.buf) * 2
	if n == 0 {
		n = 16
	}
	next := make([]message, n)
	for i := 0; i < m.count; i++ {
		next[i] = m.buf[(m.head+i)%len(m.buf)]
	}
	m.buf = next
	m.head = 0
}

// drainN moves up to max buffered messages (max <= 0: all of them) into
// dst without blocking, advancing the ring head past the drained prefix,
// so the ring wraps. Ring slots are zeroed as they are drained so the
// mailbox never pins tuple memory. It also reports the number of
// messages left behind, so the caller's requeue decision costs no extra
// lock acquisition. The worker pool uses the bound so a hot task cannot
// monopolize a worker.
func (m *mailbox) drainN(dst []message, max int) (_ []message, remaining int) {
	m.mu.Lock()
	n := m.count
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		slot := (m.head + i) % len(m.buf)
		dst = append(dst, m.buf[slot])
		m.buf[slot] = message{}
	}
	m.count -= n
	if m.count == 0 {
		m.head = 0
		m.releaseOversized()
	} else {
		m.head = (m.head + n) % len(m.buf)
	}
	remaining = m.count
	m.mu.Unlock()
	return dst, remaining
}

// releaseOversized drops the ring storage between bursts so a one-off
// spike does not hold its high-water memory forever. Caller holds m.mu
// and has emptied the ring.
func (m *mailbox) releaseOversized() {
	if len(m.buf) > 1024 {
		m.buf = nil
	}
}

// depth reports the number of buffered messages (queue-depth gauge).
func (m *mailbox) depth() int {
	m.mu.Lock()
	n := m.count
	m.mu.Unlock()
	return n
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// syncItem is one queued unit of work on the synchronous substrate.
type syncItem struct {
	t   *task
	msg message
}

// syncSubstrate executes the whole topology on the ingesting goroutine:
// tasks have no goroutines or mailboxes, and each ingested tuple's
// complete probe chain (including MIR feeding) runs to completion in
// FIFO order before Ingest returns. Only the ingesting goroutine
// touches the queue; head is the consume cursor, shared across nested
// drains: a sink callback calling Ingest/Drain re-enters drain, which
// keeps consuming from the same cursor, so each item is handled exactly
// once and a nested Drain still drains fully.
type syncSubstrate struct {
	e     *Engine
	queue []syncItem
	head  int
}

func (s *syncSubstrate) start(*task)  {} // no goroutine, no mailbox
func (s *syncSubstrate) retire(*task) {}

func (s *syncSubstrate) send(t *task, msg message) {
	s.queue = append(s.queue, syncItem{t: t, msg: msg})
}

func (s *syncSubstrate) admit() bool { return true }
func (s *syncSubstrate) wake()       {}
func (s *syncSubstrate) stop()       {}

// reentrant is always false: the synchronous drain is re-entrancy-safe
// by construction (the shared cursor), so nested drains are wanted.
func (s *syncSubstrate) reentrant() bool { return false }

// drain processes queued work in FIFO order until the topology settles.
// Handling a message may enqueue follow-up work, which is appended
// behind the shared cursor and processed in the same pass. The backing
// array is kept between bursts — the ingest hot path must not re-grow
// it on every tuple — with consumed slots zeroed so carried tuples are
// collectable.
func (s *syncSubstrate) drain() {
	for s.head < len(s.queue) {
		it := s.queue[s.head]
		s.queue[s.head] = syncItem{}
		s.head++
		s.e.dispatch(it.t, &it.msg)
	}
	s.head = 0
	if cap(s.queue) > 4096 {
		s.queue = nil // release a one-off spike's high-water memory
	} else {
		s.queue = s.queue[:0]
	}
}

// flowSubstrate bounds queueing with a credit protocol and multiplexes
// all tasks onto a shared worker pool (scheduler.go).
//
// Credit protocol: each task grants MailboxCredits message credits to a
// shared pool when it spawns and withdraws them when its store retires,
// so the bound follows the live tasks. Every sent message consumes one
// credit; handling it returns the credit. Source-side admission
// (Engine.Ingest) is the only gate: a tuple is admitted only while the
// pool balance is positive — otherwise the producer blocks
// (BlockOnOverload) or the tuple is shed (ShedOnOverload). In-topology sends (probe chains, MIR
// feeding) never block — a worker blocked on a congested downstream
// task could deadlock the pool — so they may overdraw the balance into
// the negative; the overdraft is bounded by the fan-out of the admitted
// in-flight tuples and stops admission until it is repaid. Total
// queueing is therefore bounded by Σ grants plus the transient
// overdraft, independent of how far the source runs ahead.
type flowSubstrate struct {
	e      *Engine
	policy OverloadPolicy
	grant  int // credits granted per task at spawn
	pool   *workerPool

	// credits is the pool balance, kept atomic so the per-message send
	// path (every probe transfer from every worker) never touches the
	// mutex: sends decrement, repayments add, and only admission's
	// about-to-block slow path and the repay-side wakeup serialize on
	// mu. granted is the live tasks' total grant — the balance of a
	// fully settled pool.
	credits atomic.Int64
	granted atomic.Int64
	waiters atomic.Int32
	stopped atomic.Bool

	mu   sync.Mutex // guards cond waits and workerIDs
	cond *sync.Cond
	// workerIDs holds the pool workers' goroutine ids. A worker that
	// re-enters Ingest from a result sink (feedback ingestion) must not
	// block or shed at the admission gate: the credits it would wait
	// for are repaid by its own unfinished batch, so it gets elastic
	// credit like any in-topology send. Checked only on admission's
	// exhausted-credit slow path.
	workerIDs map[uint64]bool
}

func newFlowSubstrate(e *Engine, cfg FlowConfig) *flowSubstrate {
	if cfg.MailboxCredits <= 0 {
		cfg.MailboxCredits = 256
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	f := &flowSubstrate{e: e, policy: cfg.Policy, grant: cfg.MailboxCredits,
		workerIDs: make(map[uint64]bool, workers)}
	f.cond = sync.NewCond(&f.mu)
	f.pool = newWorkerPool(f, workers)
	return f
}

// noteWorker registers a pool worker's goroutine id (called once per
// worker before it services any task).
func (f *flowSubstrate) noteWorker(id uint64) {
	f.mu.Lock()
	f.workerIDs[id] = true
	f.mu.Unlock()
}

// start grants the new task's mailbox credits to the shared pool. No
// goroutine spawns: topology size (queries × stores × parallelism) is
// decoupled from goroutine count.
func (f *flowSubstrate) start(t *task) {
	t.mailbox = &mailbox{}
	f.granted.Add(int64(f.grant))
	f.addCredits(int64(f.grant))
}

func (f *flowSubstrate) retire(*task) {
	f.granted.Add(-int64(f.grant))
	f.addCredits(-int64(f.grant))
}

func (f *flowSubstrate) send(t *task, msg message) {
	f.credits.Add(-1)
	if !t.mailbox.put(msg) {
		// Stop closed the mailbox under us: refund the credit and the
		// engine-side accounting; nothing will ever dispatch this message.
		f.addCredits(1)
		f.e.dropUndelivered(&msg)
		return
	}
	if t.sched.CompareAndSwap(0, 1) {
		f.pool.enqueue(t)
	}
}

// repay returns n credits after a worker handled a batch, waking any
// producer blocked at the admission gate.
func (f *flowSubstrate) repay(n int) { f.addCredits(int64(n)) }

// addCredits adds to the balance and wakes admission waiters. The
// broadcast happens under mu: a waiter increments waiters and checks
// the balance while holding mu, so a repayment landing in its
// check-to-Wait window blocks on mu until the waiter is parked — no
// lost wakeups, and the lock is touched only when someone waits.
func (f *flowSubstrate) addCredits(n int64) {
	bal := f.credits.Add(n)
	if bal > 0 && f.waiters.Load() > 0 {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	}
	// A fully repaid pool is the second half of drain's settle condition
	// (inflight can hit zero before the last repayment lands), so credit
	// settlement must wake drain waiters too.
	if bal == f.granted.Load() {
		f.e.notifySettled()
	}
}

// admit gates one source tuple. BlockOnOverload waits for positive
// credit; ShedOnOverload refuses immediately. A terminal failure or
// Stop wakes and releases waiters — the caller re-checks engine state
// after admission, so a woken producer never emits into a dead engine.
// A pool worker re-entering Ingest (a result sink feeding tuples back)
// is never blocked or shed: it gets elastic credit like any
// in-topology send, because the credits it would wait for are repaid
// only by its own unfinished batch.
func (f *flowSubstrate) admit() bool {
	if f.credits.Load() > 0 || f.stopped.Load() {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.workerIDs[curGoroutineID()] {
		return true
	}
	if f.policy == ShedOnOverload {
		return false
	}
	f.waiters.Add(1)
	for f.credits.Load() <= 0 && !f.stopped.Load() && f.e.Failure() == nil {
		f.cond.Wait()
	}
	f.waiters.Add(-1)
	return true
}

// drain waits for the in-flight count AND the credit pool to settle:
// workers repay a batch's credits after dispatching it, so inflight
// can reach zero a moment before the last repayment lands. Waiting for
// the full grant makes post-drain Pressure readings (and the tests
// asserting them) deterministic. The wait parks on the engine's quiesce
// condition — woken by the inflight-zero transition (Engine.dispatch)
// and by credit settlement (addCredits) — instead of sleep-polling.
func (f *flowSubstrate) drain() {
	f.e.waitSettled(func() bool {
		return f.e.inflight.Load() == 0 && f.credits.Load() == f.granted.Load()
	})
}

func (f *flowSubstrate) wake() {
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
}

func (f *flowSubstrate) stop() {
	f.stopped.Store(true)
	f.wake()
	f.pool.stop()
}

// creditsAvailable reports the current pool balance (Pressure gauge).
func (f *flowSubstrate) creditsAvailable() int64 { return f.credits.Load() }

func (f *flowSubstrate) reentrant() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.workerIDs[curGoroutineID()]
}

// curGoroutineID parses the running goroutine's id from its stack
// header ("goroutine N [running]:"). Costs a runtime.Stack call, so it
// is used only on admission's about-to-block slow path.
func curGoroutineID() uint64 {
	var buf [32]byte
	n := stdruntime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
