// Package runtime executes CLASH topologies on a pluggable scale-out
// simulator substrate (flow.go, DESIGN.md §8): hash or broadcast
// routing between store tasks and per-epoch windowed stores with
// attribute indices (Sec. IV and VI of the paper; the Storm
// substitution is documented in DESIGN.md). Three substrates share all
// store/probe code: synchronous (exact FIFO on the ingesting
// goroutine), flow-controlled (credit-based backpressure over a shared
// worker pool; an unexhaustible grant gives the Fig. 8a buffering
// behaviour), and deterministic simulation (seeded schedules over a
// virtual clock, sim.go and DESIGN.md §9).
package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/query"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// Config configures an engine instance.
type Config struct {
	// Catalog supplies relation schemas and windows.
	Catalog *query.Catalog
	// DefaultWindow applies to relations without a configured window
	// (0 = unbounded history, the Fig. 7 setting).
	DefaultWindow time.Duration
	// EpochLength enables epoch-based adaptive configuration (Sec. VI).
	// 0 runs a single static epoch.
	EpochLength time.Duration
	// MemoryLimitBytes fails the engine with ErrMemoryLimit when
	// materialized state plus queued messages exceed it (0 = unlimited)
	// — the one budget that fails. The Fig. 8a static strategy dies this
	// way.
	MemoryLimitBytes int64
	// StateBackend selects the task-store implementation (state.go,
	// DESIGN.md §10): the seed per-epoch container design (default,
	// the differential oracle) or the epoch-ring columnar store.
	StateBackend StateBackendKind
	// StateLimitBytes bounds materialized state (payload, structure,
	// and index overhead; 0 = unlimited). At the limit the task that
	// crossed it sheds whole epochs, oldest first, with counted drops;
	// the current arrival epoch is never shed, so the budget needs
	// EpochLength > 0 to act. It never fails the engine.
	StateLimitBytes int64
	// StateHotBytes enables the columnar backend's spill tier and
	// bounds the resident (in-memory) portion of materialized state
	// (0 = no tier, everything stays in memory): above it, tasks demote
	// their coldest whole epochs to the on-disk spill store (spill.go)
	// instead of evicting them. Demotion moves bytes, never tuples —
	// results are unaffected. Ignored by the container oracle.
	StateHotBytes int64
	// StateSpillDir is where the spill tier places its per-task spill
	// files (default: the OS temp directory). Files are created on the
	// first demotion and unlinked at creation where the platform
	// allows, so crashed engines leak nothing.
	StateSpillDir string
	// StepMode drains the topology after every ingested tuple, giving
	// deterministic symmetric-join semantics for correctness tests.
	StepMode bool
	// Substrate selects the execution substrate (flow.go, DESIGN.md §8
	// and §9). SubstrateSynchronous runs each ingested tuple's complete
	// probe chain (MIR feeding included) on the ingesting goroutine
	// before Ingest returns: exact and deterministic, the mode of the
	// result-exactness experiments (Fig. 7); feed it from one goroutine.
	// SubstrateFlow, the asynchronous default (SubstrateAuto), is the
	// substrate for overload dynamics (Fig. 8), where probes racing ahead
	// of feeding chains are the buffering under study. SubstrateSim is
	// the deterministic simulation.
	Substrate SubstrateKind
	// Flow tunes the flow-controlled substrate (credit grants, worker
	// count, overload policy); ignored by the other substrates.
	Flow FlowConfig
	// Sim tunes the deterministic simulation substrate (sim.go); ignored
	// by the other substrates. Its substrate runs on its own
	// VirtualClock; the others read the wall clock.
	Sim SimConfig
	// Observer, when set, is the statistics-gathering tap of Fig. 2
	// (wire it to a stats.Collector). It is called on the engine's
	// statistics goroutine, once per ingested tuple, in ingest order
	// (observe.go). Every tuple ingested before a Drain, a Stop or a
	// Controller's epoch seal has been observed when that call returns.
	// A panic in it fails the engine (Failure). The tuple is valid until
	// the Observer returns (it is recycled, DESIGN.md §7): keep t.Clone().
	Observer func(rel string, t *tuple.Tuple)
	// MeasuredCosts meters task work: tasks count the nanoseconds and
	// tuples they spend probing, inserting and pruning (through the
	// engine's clock, so the simulation substrate measures virtual time),
	// read per task from TaskGauges. It is a meter only: no plan reads
	// it. Off by default, since metering reads the clock on every
	// message; off, the hot path pays only a branch per message.
	MeasuredCosts bool
}

// ErrMemoryLimit is reported when the engine exceeds its memory budget.
var ErrMemoryLimit = errors.New("runtime: memory limit exceeded")

// ErrUnknownRelation is reported when a tuple names a relation absent
// from the engine's catalog. Recovery matches against it to recognize
// WAL records of relations that left the catalog with a rewiring.
var ErrUnknownRelation = errors.New("runtime: unknown relation")

type taskKey struct {
	store topology.StoreID
	part  int
}

// message travels between tasks. A data message carries a batch: all
// result tuples of one probe headed for the same task travel together,
// so the number of messaging events does not grow with the result size
// — only the bytes do (Sec. III). A single tuple is a batch of one. A
// sent batch is read-only: a broadcast or a split-key probe shares one
// among several messages.
type message struct {
	kind       int8 // kindData, kindPrune or kindRetire
	edge       topology.EdgeID
	epoch      int64 // data: target epoch; prune: event-time cutoff
	batch      []*tuple.Tuple
	seq        uint64
	ingestWall int64 // wall-clock nanos at ingestion, for latency
	// in is the ingested tuple the batch is, when the engine counts its
	// holders: the message holds one reference from send until dispatch
	// or dropUndelivered lets it go. nil on every other message.
	in *ingested
}

// tupleCount returns the number of tuples the message carries.
func (m *message) tupleCount() int64 { return int64(len(m.batch)) }

// memSize approximates the message payload bytes.
func (m *message) memSize() int64 {
	var n int64
	for _, t := range m.batch {
		n += int64(t.MemSize())
	}
	return n
}

// ingested is an ingested tuple allocated together with the one-slot
// batch it travels in. On an engine whose stores copy what they store
// (Engine.storesCopy) it is reference counted — Ingest while it emits,
// each queued message that carries it, the statistics tap until the
// Observer has seen it — and the last release puts it back on its
// relation's free list (DESIGN.md §7). On the container layout, whose
// stores keep the pointer, nothing is counted and the garbage collector
// frees it.
type ingested struct {
	t    tuple.Tuple
	one  [1]*tuple.Tuple
	refs atomic.Int32
	src  *source
}

// retain takes one more reference.
func (in *ingested) retain() { in.refs.Add(1) }

// release lets one reference go; the last one returns the tuple to its
// relation's free list, poisoned under tuple.PoisonRecycled so a holder
// that kept it past its reference reads poison.
func (in *ingested) release() {
	switch n := in.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("runtime: an ingested tuple was released more often than it was referenced")
	}
	if tuple.PoisonRecycled {
		in.t.Poison()
	}
	in.src.free.Put(in)
}

// source is one relation's ingest schema and the free list its ingested
// tuples return to.
type source struct {
	schema *tuple.Schema
	free   sync.Pool // of *ingested, used only on an engine that recycles
}

// take returns an ingested tuple of the relation holding ts and vals,
// with one reference, the caller's: off the free list when the engine
// recycles, fresh otherwise.
func (s *source) take(recycle bool, ts tuple.Time, vals []tuple.Value) *ingested {
	var in *ingested
	if recycle {
		in, _ = s.free.Get().(*ingested)
	}
	if in == nil {
		in = &ingested{src: s}
		in.t.Values = make([]tuple.Value, 0, s.schema.Len())
		in.one[0] = &in.t
	}
	if recycle {
		in.refs.Store(1)
	}
	full := append(append(in.t.Values[:0], vals...), tuple.IntValue(int64(ts)))
	in.t = tuple.Tuple{Schema: s.schema, Values: full, TS: ts}
	return in
}

// Engine executes topology configurations.
type Engine struct {
	cfg     Config
	metrics *Metrics
	vclock  *VirtualClock // nil on real time (clock.go)
	base    time.Time     // real time's origin, read monotonically (clock.go)
	// sub is the execution substrate (flow.go): message delivery, task
	// scheduling, and flow control. syncMode mirrors whether sub is a
	// single-threaded substrate (the work queue must be pumped inline).
	sub      substrate
	syncMode bool

	// Quiesce parking: Drain waits here instead of sleep-polling. A
	// waiter registers in qWaiters before checking its settle condition
	// under qMu; notifySettled broadcasts under the same lock, so a
	// settle landing in the check-to-Wait window blocks on qMu until the
	// waiter is parked — no lost wakeups, and the lock is untouched
	// unless someone waits.
	qMu      sync.Mutex
	qCond    *sync.Cond
	qWaiters atomic.Int32

	mu      sync.RWMutex
	configs []*epochConfig // sorted by fromEpoch ascending
	// stores holds the record — pin and tasks — of every store an
	// installed configuration names (pins.go); storeOrder lists the same
	// records by store ID, the order every walk over the tasks follows.
	stores     map[topology.StoreID]*store
	storeOrder []*store
	births     uint64             // store records created (StorePin.Born)
	sources    map[string]*source // relation -> ingest schema (attrs + τ) and free list
	// storesCopy is set when the state layout copies what it stores (the
	// columnar store, tiered or not) instead of keeping the pointer: no
	// store keeps an ingested tuple then, so Ingest counts and recycles
	// them, and a restore loads rows through one scratch tuple.
	storesCopy bool
	// keyNums numbers the index keys of every plan compiled (plan.go).
	keyNums keyNumbers
	// compileTopo's buffers for a rule's compiled emissions, an edge's
	// plans and a store's index keys.
	emitScratch []emitStep
	planScratch []*rulePlan
	keyScratch  []int32
	// keepByEdge is a test hook: compileTopo keeps a previous plan by
	// store, edge and kind alone, whatever its predicates and emissions —
	// the wrong reuse that the reuse test must catch.
	keepByEdge bool

	sinkMu sync.RWMutex
	sinks  map[string]func(*tuple.Tuple)

	seq         atomic.Uint64
	inflight    atomic.Int64
	queuedBytes atomic.Int64 // approximate bytes buffered in mailboxes
	watermk     atomic.Int64 // max event time observed
	failure     atomic.Value // error
	stopped     atomic.Bool
	stopDone    chan struct{} // closed when the winning Stop finishes
	closeErr    error         // first backend-teardown failure; written by the winning Stop before stopDone closes
	jrnl        atomic.Pointer[journalBox]

	// barrier holds the re-optimizations being solved beside the stream
	// (barrier.go); Ingest installs them at their target epoch.
	barrier barrier
	// tap runs Config.Observer beside the stream (observe.go); nil
	// without an Observer.
	tap *observerTap
}

type epochConfig struct {
	fromEpoch int64
	topo      *topology.Config
	comp      *compiledTopo // compiled once at Install (plan.go)
}

// New creates an engine; Install a topology before ingesting.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:        cfg,
		metrics:    newMetrics(),
		stores:     map[topology.StoreID]*store{},
		keyNums:    keyNumbers{},
		sources:    map[string]*source{},
		storesCopy: cfg.StateBackend == BackendColumnar,
		sinks:      map[string]func(*tuple.Tuple){},
		stopDone:   make(chan struct{}),
		base:       time.Now(),
	}
	e.qCond = sync.NewCond(&e.qMu)
	if cfg.Observer != nil {
		e.tap = newObserverTap(cfg.Observer, e.fail)
	}
	e.barrier.min.Store(noPending)
	switch cfg.Substrate {
	case SubstrateSynchronous:
		e.syncMode = true
		e.sub = &syncSubstrate{e: e}
	case SubstrateSim:
		// The simulation substrate owns virtual time: it advances its
		// clock per dispatched message.
		s := newSimSubstrate(e, cfg.Sim)
		e.vclock = s.vclock
		e.sub = s
	default:
		e.sub = newFlowSubstrate(e, cfg.Flow)
	}
	if cfg.Catalog != nil {
		for _, rel := range cfg.Catalog.Names() {
			e.sources[rel] = &source{schema: ingestSchema(cfg.Catalog.Relation(rel))}
		}
	}
	return e
}

// ingestSchema qualifies the relation's attributes and appends the τ
// pseudo-attribute carrying the tuple's own event time, which makes
// per-relation window checks possible on joined tuples.
func ingestSchema(r *query.Relation) *tuple.Schema {
	names := make([]string, 0, len(r.Attrs)+1)
	for _, a := range r.Attrs {
		names = append(names, r.Name+"."+a)
	}
	names = append(names, r.Name+"."+tuple.EventTime)
	return tuple.NewSchema(names...)
}

// Metrics exposes the engine counters.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Snapshot returns a point-in-time copy of the engine's counters — the
// export hook cluster-level aggregation reads per shard.
func (e *Engine) Snapshot() Snapshot { return e.metrics.Snapshot() }

// HasStore reports whether an installed configuration names the store:
// a retired store, absent from every one, is not there.
func (e *Engine) HasStore(id topology.StoreID) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.stores[id] != nil
}

// VirtualClock returns the engine's virtual clock, or nil when the
// engine runs on real time. Tests use it to fast-forward simulated time.
func (e *Engine) VirtualClock() *VirtualClock { return e.vclock }

// waitSettled parks the calling goroutine until settled() holds. The
// substrates' drain implementations use it instead of sleep-polling:
// notifySettled wakes the parked waiter as soon as the last in-flight
// message (or credit repayment) lands, so drains return promptly without
// burning a CPU on a spin-wait. settled must be monotonic-ish under no
// concurrent Ingest: once true it stays true, which is exactly the
// drain contract.
func (e *Engine) waitSettled(settled func() bool) {
	if settled() {
		return
	}
	e.qWaiters.Add(1)
	e.qMu.Lock()
	for !settled() {
		e.qCond.Wait()
	}
	e.qMu.Unlock()
	e.qWaiters.Add(-1)
}

// notifySettled wakes drain waiters. Called on the transitions a drain
// condition can wait for: the in-flight count reaching zero and the
// flow substrate's credit pool settling. Lock-free unless someone waits.
func (e *Engine) notifySettled() {
	if e.qWaiters.Load() > 0 {
		e.qMu.Lock()
		e.qCond.Broadcast()
		e.qMu.Unlock()
	}
}

// OnResult registers a sink callback for a query's results. Callbacks
// run on task goroutines and must be fast and thread-safe. The tuple is
// valid until the callback returns (it is recycled): keep its Clone.
func (e *Engine) OnResult(queryName string, fn func(*tuple.Tuple)) {
	e.sinkMu.Lock()
	e.sinks[queryName] = fn
	e.sinkMu.Unlock()
}

// Install activates a topology from the given epoch on (epoch 0 and
// EpochLength 0 give a static deployment). A store the topology
// introduces gets its record and tasks, pinned to the topology's choices
// (pins.go); a store that no installed configuration names any more,
// once this one is in and the configurations it shadows are gone, is
// retired: its tasks clear their state and its record is deleted. The
// synchronous substrate has applied the retirement when Install returns.
func (e *Engine) Install(topo *topology.Config, fromEpoch int64) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	// Records must precede plan compilation: compiled emissions point at
	// their target's record.
	for id, s := range topo.Stores {
		if e.stores[id] == nil {
			e.addStore(id, s)
		}
	}
	// The newest installed config is what the new one most likely repeats.
	var prev *compiledTopo
	if n := len(e.configs); n > 0 {
		prev = e.configs[n-1].comp
	}
	comp := e.compileTopo(topo, prev)
	// A newer install supersedes any pending config for the same or a
	// later epoch: a query-churn config at e+1 must not be shadowed by a
	// re-optimization at e+2 that was planned before the churn.
	kept := e.configs[:0]
	for _, c := range e.configs {
		if c.fromEpoch < fromEpoch {
			kept = append(kept, c)
		}
	}
	e.configs = append(kept, &epochConfig{fromEpoch: fromEpoch, topo: topo, comp: comp})
	sort.Slice(e.configs, func(i, j int) bool { return e.configs[i].fromEpoch < e.configs[j].fromEpoch })
	// Garbage-collect superseded history: configs fully shadowed before
	// the safety horizon (two epochs behind the watermark) can never be
	// resolved again.
	horizon := e.Epoch(e.Watermark()) - 2
	cut := 0
	for i := 0; i+1 < len(e.configs); i++ {
		if e.configs[i+1].fromEpoch <= horizon {
			cut = i + 1
		}
	}
	e.configs = e.configs[cut:]
	retired := e.retireUnnamed()
	e.mu.Unlock()
	if retired && e.syncMode {
		e.sub.drain()
	}
	return nil
}

// configFor returns the epoch config active at the given epoch (largest
// fromEpoch ≤ epoch), or nil. Binary search: this sits on the hot path
// of every emitted tuple.
func (e *Engine) configFor(epoch int64) *epochConfig {
	lo, hi := 0, len(e.configs)-1
	var best *epochConfig
	for lo <= hi {
		mid := (lo + hi) / 2
		if e.configs[mid].fromEpoch <= epoch {
			best = e.configs[mid]
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// ConfigFor is the exported, locked variant for inspection and tests.
func (e *Engine) ConfigFor(epoch int64) *topology.Config {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if ec := e.configFor(epoch); ec != nil {
		return ec.topo
	}
	return nil
}

// Epoch returns the epoch containing the event time.
func (e *Engine) Epoch(ts tuple.Time) int64 {
	if e.cfg.EpochLength <= 0 {
		return 0
	}
	return int64(ts) / int64(e.cfg.EpochLength)
}

// Failure returns the terminal error, if the engine failed.
func (e *Engine) Failure() error {
	if v := e.failure.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Fail fails the engine with err unless it already failed: every later
// Ingest returns the first failure. The recovery layer fails the engine
// when a checkpoint record does not append.
func (e *Engine) Fail(err error) { e.fail(err) }

// Concurrent reports whether the engine's tasks run on goroutines of
// their own (the flow substrate). The synchronous and simulation
// substrates run everything on the caller's goroutine.
func (e *Engine) Concurrent() bool { return !e.syncMode && e.vclock == nil }

func (e *Engine) fail(err error) {
	e.failure.CompareAndSwap(nil, err)
	// Admission waiters must observe terminal failures or they would
	// block forever on an engine that will never repay credits.
	e.sub.wake()
}

// Watermark returns the maximum event time ingested.
func (e *Engine) Watermark() tuple.Time { return tuple.Time(e.watermk.Load()) }

// Ingest feeds one tuple of the relation into the topology, following
// the adaptive input handling of Algorithm 4: the tuple is delivered to
// each epoch-dependent receiver set it can serve as a join partner for.
func (e *Engine) Ingest(rel string, ts tuple.Time, vals ...tuple.Value) error {
	if err := e.Failure(); err != nil {
		return err
	}
	if e.stopped.Load() {
		return errors.New("runtime: engine stopped")
	}
	e.mu.RLock()
	src := e.sources[rel]
	e.mu.RUnlock()
	if src == nil {
		return fmt.Errorf("%w %q", ErrUnknownRelation, rel)
	}
	if n := src.schema.Len() - 1; len(vals) != n {
		return fmt.Errorf("runtime: %d values for relation %s with %d attributes", len(vals), rel, n)
	}
	// The install barrier (barrier.go): a re-optimization targeting this
	// tuple's epoch or an earlier one is installed before the tuple is
	// routed. One atomic load when nothing is pending.
	ownEpoch := e.Epoch(ts)
	if ownEpoch >= e.barrier.min.Load() {
		e.installDue(ownEpoch)
		if err := e.Failure(); err != nil {
			return err
		}
	}
	// Flow-controlled admission (credit protocol, flow.go) runs before
	// any engine lock is taken, so a blocked producer can never stall
	// workers or a concurrent Install. A shed tuple is dropped silently
	// per policy and counted in Snapshot.ShedTuples; a woken waiter
	// re-checks engine state before emitting anything.
	if !e.sub.admit() {
		e.metrics.shed.Add(1)
		return nil
	}
	if e.stopped.Load() {
		return errors.New("runtime: engine stopped")
	}
	if err := e.Failure(); err != nil {
		return err
	}
	// The tuple holds Ingest's reference until its emission is done; ref
	// is what the messages carry, nil when nothing is counted.
	in := src.take(e.storesCopy, ts, vals)
	var ref *ingested
	if e.storesCopy {
		ref = in
	}

	seq := e.seq.Add(1)
	// Write-ahead: the record must be durable before the tuple takes any
	// effect. A tuple that fails to log is never processed (the engine
	// fails instead of diverging from its log); a logged tuple can
	// always be replayed under the same sequence number. The record
	// reads the source values through the tuple's prefix, not vals: vals
	// crossing the interface would escape the caller's variadic slice
	// to the heap on every ingest, journaled or not.
	if j := e.journal(); j != nil {
		if err := j.LogIngest(rel, ts, in.t.Values[:len(vals)], seq); err != nil {
			e.fail(fmt.Errorf("runtime: write-ahead log append: %w", err))
			return e.Failure()
		}
	}
	for {
		old := e.watermk.Load()
		if int64(ts) <= old || e.watermk.CompareAndSwap(old, int64(ts)) {
			break
		}
	}
	e.metrics.ingested.Add(1)
	if e.tap != nil {
		e.tap.observe(rel, &in.t, ref)
	}
	wall := e.now()

	// The tuple is processed under its own epoch's configuration: stored
	// once into its arrival-epoch container, and probing along the
	// epoch's probe trees. Probes scan the containers of all epochs
	// within the window, so cross-epoch join partners are found without
	// replicating state (Sec. VI-A).
	e.mu.RLock()
	if ec := e.configFor(ownEpoch); ec != nil {
		steps := ec.comp.spouts[rel]
		for i := range steps {
			e.emitBatchLocked(&steps[i], message{epoch: ownEpoch, batch: in.one[:], seq: seq, ingestWall: wall, in: ref}, nil)
		}
	}
	e.mu.RUnlock()

	// The engine's own pumps drain the substrate only: waiting here for
	// a solve beside the stream would serialize it with ingest again.
	if e.syncMode {
		e.sub.drain()
	} else if e.cfg.StepMode && !e.sub.reentrant() {
		// A sink re-entering Ingest from a dispatch goroutine must not
		// drain: the message being handled below this frame keeps the
		// in-flight count nonzero, so the wait could never settle. The
		// outer (source-side) step drain settles the feedback instead.
		e.sub.drain()
	}
	if ref != nil {
		ref.release()
	}
	return e.Failure()
}

func (e *Engine) window(rel string) time.Duration {
	if e.cfg.Catalog == nil {
		return e.cfg.DefaultWindow
	}
	return e.cfg.Catalog.Window(rel, e.cfg.DefaultWindow)
}

// emitBatchLocked routes a batch along a compiled emission — the one
// routing rule of ingested tuples and forwarded results alike. Callers
// hold e.mu (read). Routing metadata — store/probe classification,
// pinned parallelism, routing attribute — comes precomputed on the step
// (plan.go); only the tuples' own routing values are resolved here.
// Tuples headed for the same task travel as one message (Sec. III:
// probe cost counts tuples, messaging events count batches).
//
// Inserts always route by the store's pinned partitioning attribute,
// which every stored tuple carries by name. Probes route by the
// emission's compile-time RouteBy attribute when its equality to the
// pinned partitioning is guaranteed (see DESIGN.md; a config declaring
// a different partitioning than the pinned physical layout cannot key
// its probes — they broadcast).
//
// msg is the emission: its batch, epoch, sequence number, ingest wall
// time and ingested holder; every message sent is a copy of it on the
// step's edge. A batch of one is sent as it is, so its caller hands the
// array over. A longer batch may be (and on the hot path is) the
// calling task's reused scratch: the routed tuples are copied into one
// fresh, exactly-sized allocation that the outgoing messages slice up,
// so the caller is free to truncate and refill its buffer immediately.
// rs is the partitioner's scratch, unused for a batch of one.
func (e *Engine) emitBatchLocked(step *emitStep, msg message, rs *routeScratch) {
	batch := msg.batch
	if step.sink != "" {
		e.deliverResultBatch(step.sink, batch, msg.ingestWall)
		return
	}
	msg.edge = step.edge
	to, name := step.to, step.routeName()
	if to.par == 1 || name == "" {
		// One destination rule for the whole batch, sent as one message or
		// shared across all partitions. A single partition resolves every
		// rule to part 0 (h%1, seq%1, a one-task broadcast), so no routing
		// value is looked up or hashed.
		if len(batch) > 1 {
			msg.batch = slices.Clone(batch)
		}
		e.sendRest(step, msg)
		return
	}
	if len(batch) == 1 {
		// The hot case: the batch itself travels, keyed by its one tuple.
		if v, ok := batch[0].Get(name); ok {
			p, alt := keyedParts(step, v.Hash())
			e.send(to.tasks[p], msg)
			if alt >= 0 {
				e.send(to.tasks[alt], msg)
			}
		} else {
			e.sendRest(step, msg)
		}
		return
	}

	// Two-pass partitioning into one flat allocation: pass 1 routes each
	// tuple to its partition — a split key's probe to both candidates —
	// and counts, pass 2 fills contiguous per-partition segments in batch
	// order (unroutable tuples go to the tail).
	rs.ensure(to.par, len(batch))
	nRest, nAlt := 0, 0
	for i, t := range batch {
		if v, ok := t.Get(name); ok {
			p, alt := keyedParts(step, v.Hash())
			rs.parts[i], rs.alts[i] = int32(p), int32(alt)
			rs.counts[p]++
			if alt >= 0 {
				rs.counts[alt]++
				nAlt++
			}
		} else {
			rs.parts[i] = -1
			nRest++
		}
	}
	flat := make([]*tuple.Tuple, len(batch)+nAlt)
	off := int32(0)
	for p := range rs.starts {
		rs.starts[p] = off
		off += rs.counts[p]
	}
	restCur := off
	for i, t := range batch {
		p := rs.parts[i]
		if p < 0 {
			flat[restCur] = t
			restCur++
			continue
		}
		flat[rs.starts[p]] = t
		rs.starts[p]++
		if a := rs.alts[i]; a >= 0 {
			flat[rs.starts[a]] = t
			rs.starts[a]++
		}
	}
	off = 0
	for p, t := range to.tasks {
		n := rs.counts[p]
		if n == 0 {
			continue
		}
		m := msg
		m.batch = flat[off : off+n : off+n]
		e.send(t, m)
		off += n
	}
	if nRest > 0 {
		msg.batch = flat[off:]
		e.sendRest(step, msg)
	}
}

// sendRest sends tuples that cannot be keyed. An insert lands on one
// round-robin task, so the tuple is materialized exactly once and later
// probes broadcast. A probe broadcasts: the batch counts once per task
// (χ in Eq. 1), and so does its message event (Sec. III).
func (e *Engine) sendRest(step *emitStep, msg message) {
	to := step.to
	if step.isStore {
		e.send(to.tasks[msg.seq%uint64(to.par)], msg)
		return
	}
	for _, t := range to.tasks {
		e.send(t, msg)
	}
}

// keyedParts routes a keyed transfer whose routing value hashes to h —
// the one routing rule of partitioned stores. A key outside the store's
// pinned split set goes to its hash partition. A split key (one the
// optimizer flagged as hot enough to overload a single partition) has
// two candidates: an insert lands on the less-loaded one, a probe visits
// both, returned as alt (-1: none). Every insert landed on one of the
// candidates, so a probe that checks both misses no partner.
func keyedParts(step *emitStep, h uint64) (p, alt int) {
	to := step.to
	if _, hot := to.split[h]; !hot {
		return int(h % uint64(to.par)), -1
	}
	p1, p2 := SplitCandidates(h, to.par)
	switch {
	case !step.isStore:
		return p1, p2
	case to.tasks[p2].storedCount.Load() < to.tasks[p1].storedCount.Load():
		return p2, -1
	}
	return p1, -1
}

// SplitCandidates derives a split key's two candidates among n ≥ 2
// partitions (or shards, one level up): the key's hash partition and a
// decorrelated second one, always distinct.
func SplitCandidates(h uint64, n int) (int, int) {
	p1 := int(h % uint64(n))
	p2 := int((h * 0x9E3779B97F4A7C15 >> 17) % uint64(n))
	if p2 == p1 {
		p2 = (p1 + 1) % n
	}
	return p1, p2
}

// send delivers a data message, taking the reference its ingested
// tuple (if counted) holds until the message is handled.
func (e *Engine) send(t *task, msg message) {
	if msg.in != nil {
		msg.in.retain()
	}
	e.inflight.Add(1)
	e.metrics.probeSent.Add(msg.tupleCount())
	e.metrics.messages.Add(1)
	if sz := msg.memSize(); sz > 0 {
		queued := e.queuedBytes.Add(sz)
		if lim := e.cfg.MemoryLimitBytes; lim > 0 && queued+e.metrics.storeBytes.Load() > lim {
			e.fail(ErrMemoryLimit)
		}
	}
	e.sub.send(t, msg)
}

// dispatch handles one delivered message on its task — the single
// per-message execution path shared by every substrate (flow.go). The
// guarded inner call runs under the panic supervisor (supervise.go);
// the in-flight decrement and the release of the message's ingested
// tuple stay out here, so a redelivered message's fresh increment and
// reference and this decrement and release always balance.
func (e *Engine) dispatch(t *task, msg *message) {
	e.dispatchGuarded(t, msg)
	if msg.in != nil {
		msg.in.release()
	}
	if e.inflight.Add(-1) == 0 {
		e.notifySettled()
	}
}

// dispatchGuarded executes one message under panic isolation: a panic
// anywhere in the task's handling path (store, probe, forward, sink
// callback) is recovered and handed to the supervisor instead of
// killing the process.
func (e *Engine) dispatchGuarded(t *task, msg *message) {
	defer func() {
		if r := recover(); r != nil {
			e.superviseTaskPanic(t, msg, r)
		}
	}()
	if t.injectPanic {
		t.injectPanic = false
		panic(errInjectedPanic)
	}
	switch msg.kind {
	case kindPrune:
		t.prune(tuple.Time(msg.epoch))
	case kindRetire:
		t.clearState()
	default:
		e.queuedBytes.Add(-msg.memSize())
		t.handle(msg)
		// Prune housekeeping stays out of the load gauge: Handled
		// feeds pressure decisions about data throughput.
		t.handled.Add(1)
	}
	// A message handled end-to-end ends any consecutive-panic streak:
	// the restart budget bounds streaks, not the task's lifetime.
	if t.restartStreak != 0 {
		t.restartStreak = 0
	}
}

// dropUndelivered compensates the accounting of a message a substrate
// could not deliver (its mailbox closed under a concurrent Stop): the
// send path already counted it in flight, so the drop must balance the
// books or a later Drain would wait forever on a message that no task
// will ever handle.
func (e *Engine) dropUndelivered(msg *message) {
	if msg.kind == kindData {
		e.queuedBytes.Add(-msg.memSize())
	}
	if msg.in != nil {
		msg.in.release()
	}
	if e.inflight.Add(-1) == 0 {
		e.notifySettled()
	}
}

// dispatchBatch runs one drained batch through dispatch with busy-time
// accounting, zeroing consumed slots so carried tuples release
// promptly. The flow substrate's pool workers use it.
func (e *Engine) dispatchBatch(t *task, batch []message) {
	if len(batch) == 0 {
		return
	}
	start := e.now()
	for i := range batch {
		e.dispatch(t, &batch[i])
		batch[i] = message{}
	}
	t.busyNanos.Add(e.now() - start)
}

// deliverResultBatch delivers a probe's result batch to one sink with
// the clock read, metrics update, and sink lookup amortized over the
// batch. The tuples share their probe's ingest wall time, so one
// latency sample weighted by the batch size records the same average.
func (e *Engine) deliverResultBatch(queryName string, batch []*tuple.Tuple, wall int64) {
	var lat time.Duration
	if wall > 0 {
		lat = time.Duration(e.now() - wall)
	}
	e.metrics.recordResultBatch(queryName, lat, len(batch))
	e.sinkMu.RLock()
	fn := e.sinks[queryName]
	e.sinkMu.RUnlock()
	if fn != nil {
		for _, t := range batch {
			fn(t)
		}
	}
}

// Drain blocks until every re-optimization being solved beside the
// stream is installed (barrier.go), every queued and in-process
// message has been handled, and the Observer has seen every ingested
// tuple (observe.go). Combined with timestamp-ordered ingestion this
// yields exact symmetric-join semantics. No concurrent Ingest may run.
func (e *Engine) Drain() {
	e.installDue(noPending)
	e.sub.drain()
	e.flushObserver()
}

// flushObserver returns once the Observer has seen every tuple ingested
// before the call.
func (e *Engine) flushObserver() {
	if e.tap != nil {
		e.tap.flush()
	}
}

// Stop drains and terminates all tasks and the statistics goroutine.
// Re-optimizations still being solved beside the stream are waited
// for, not installed, so no solve outlives the engine. A producer
// blocked at the flow substrate's admission gate is woken and observes
// the stop. Stop is idempotent and safe to call concurrently: exactly one caller performs
// the shutdown, every other caller blocks until it has finished, so no
// Stop ever returns while tasks are still running.
func (e *Engine) Stop() {
	if e.stopped.Swap(true) {
		<-e.stopDone
		return
	}
	// Wake producers parked at the admission gate first: they observe
	// the stopped flag and return, so the drain below cannot race a
	// blocked Ingest that would emit after quiescence.
	e.sub.wake()
	e.Drain()
	e.mu.Lock()
	for t := range e.liveTasks() {
		if t.mailbox != nil {
			t.mailbox.close()
		}
	}
	e.mu.Unlock()
	e.sub.stop()
	if e.tap != nil {
		e.tap.close()
	}
	// Release the spill tier's OS resources (spill files: fsync,
	// truncate, close). The substrate has stopped, so no
	// task executes and its store is safe to touch from here; the first
	// failure surfaces through Close. A retired task closed its own file
	// (task.clearState). The closeErr write is published to concurrent
	// Stop/Close callers by the stopDone close below.
	e.mu.RLock()
	for t := range e.liveTasks() {
		if t.tier == nil {
			continue
		}
		if err := t.tier.store.close(); err != nil && e.closeErr == nil {
			e.closeErr = err
		}
	}
	e.mu.RUnlock()
	close(e.stopDone)
}

// Close stops the engine and reports the first backend-teardown
// failure (a spill file that would not sync/close). It exists so an
// Engine satisfies io.Closer in teardown paths and is, like Stop,
// idempotent and safe to call concurrently (and after Stop): every
// caller returns the same error.
func (e *Engine) Close() error {
	e.Stop()
	return e.closeErr
}

// PruneBefore drops stored tuples whose event time precedes the cutoff
// in every task (window expiry; called by the adaptive controller and
// tests).
func (e *Engine) PruneBefore(cut tuple.Time) {
	// Log-before-apply, like Ingest: replay re-delivers the cutoff at
	// the same point in the record order, so pruned state converges.
	if j := e.journal(); j != nil {
		if err := j.LogPrune(cut); err != nil {
			e.fail(fmt.Errorf("runtime: write-ahead log append: %w", err))
			return
		}
	}
	// Delivery in store order: prune messages must not inherit a map's
	// iteration order, or the schedule (and the simulation substrate's
	// trace) would differ between identically seeded runs.
	e.mu.RLock()
	for t := range e.liveTasks() {
		t.requestPrune(cut)
	}
	e.mu.RUnlock()
	if e.syncMode {
		e.sub.drain()
	}
}
