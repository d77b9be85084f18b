package runtime

import (
	"fmt"
	"sync/atomic"

	"clash/internal/topology"
	"clash/internal/tuple"
)

const (
	kindData int8 = iota
	kindPrune
	kindRetire
)

// task is one partition worker of a store: it applies the epoch's
// compiled ruleset to each delivered message (Alg. 3/4). Which
// goroutine runs it is the substrate's decision (flow.go): a shared pool
// worker (flow), the seeded scheduler (sim), or the ingesting goroutine
// itself (synchronous). At most one goroutine executes a
// task at a time on every substrate, so all non-atomic task state is
// effectively single-threaded.
type task struct {
	e       *Engine
	key     taskKey
	store   *topology.Store
	mailbox *mailbox // created by the substrate; nil on syncSubstrate
	// state is the task's materialized store behind the pluggable
	// backend interface (state.go, columnar.go). Only the goroutine
	// executing the task touches it; the atomics below mirror its
	// tuple count and byte footprint for cross-goroutine gauges.
	// tier is state again when it is a columnar store running under a
	// hot budget (Config.StateHotBytes > 0), nil otherwise: the handle
	// the budget layer demotes through.
	state         stateBackend
	tier          *columnarState
	storedCount   atomic.Int64
	stateBytes    atomic.Int64 // resident bytes incl. index overhead
	stateIdxBytes atomic.Int64 // index-overhead portion of stateBytes
	// dirtyEpochs tracks resident epochs whose materialized content
	// changed since the last checkpoint cut — the delta the incremental
	// checkpointer walks (Segments(true), CutSegments) instead of the
	// whole store. An epoch that leaves the state loses its mark and
	// sets lostEpochs instead, so the set never holds more than the
	// resident epochs, with or without a checkpointer. A cut swaps the
	// set with cutEpochs (the marks it took, kept until the next cut in
	// case its record fails to append) and takes lostEpochs into
	// cutLost. Touched only on the task's execution context or on a
	// quiesced engine, like state itself.
	dirtyEpochs, cutEpochs map[int64]struct{}
	lostEpochs, cutLost    bool
	// lastDirty is the epoch markDirty recorded last, valid while
	// lastDirtyOK: a run of inserts into one epoch writes the map once.
	// Every change to the set that could drop that epoch resets it.
	lastDirty   int64
	lastDirtyOK bool

	// Scheduling and pressure state. sched is the worker-pool claim
	// flag (scheduler.go): 0 parked, 1 queued-or-running. handled and
	// busyNanos are the per-task load gauges (metrics.go TaskGauges).
	sched     atomic.Int32
	handled   atomic.Int64
	busyNanos atomic.Int64

	// Task meters (Config.MeasuredCosts): nanoseconds and tuple counts
	// per work shape, read through TaskGauges. Zero unless metering is
	// enabled.
	probeNanos   atomic.Int64
	probeTuples  atomic.Int64
	insertNanos  atomic.Int64
	insertTuples atomic.Int64
	pruneNanos   atomic.Int64
	pruneTuples  atomic.Int64

	// probeCands counts the stored rows this task's index scans handed to
	// a probe's candidate evaluation (TaskGauge.ProbeCandidates).
	probeCands atomic.Int64
	// probeRejects counts the per-epoch index lookups the filters spared
	// this task's probes (TaskGauge.ProbeFilterRejects).
	probeRejects atomic.Int64
	// probeSkips counts the probe tuples the store filter answered
	// (TaskGauge.ProbeStoreSkips).
	probeSkips atomic.Int64
	// probeMatched is the candidates that joined: the denominator of the
	// index-key tests' candidate bound. Task-confined, read after a drain.
	probeMatched int64

	// Supervisor state (supervise.go). restartStreak counts consecutive
	// panics and is touched only by the goroutine executing the task;
	// restarts and failed are the cross-goroutine health gauges.
	// injectPanic arms a one-shot panic at the next dispatch — the
	// simulation substrate's TaskPanic fault hook.
	restartStreak int
	injectPanic   bool
	restarts      atomic.Int64
	failed        atomic.Bool

	// wins lists the window lengths of the windowed base relations
	// materialized here (unbounded relations are omitted); probe plans
	// resolve the τ columns per stored schema against tauNames, the same
	// list as the qualified names of the relations' τ pseudo-attributes
	// for Schema.Positions. winAll records that EVERY materialized
	// relation is windowed — the soundness gate for segment-level window
	// skipping (probeCut) — and wMax is the largest window among them.
	wins     []int64
	tauNames []string
	winAll   bool
	wMax     int64

	// Compiled-plan state (owned by whichever goroutine the substrate
	// runs this task on — always exactly one). states holds the
	// schema-position caches of the rule plans that the current config
	// or the previous one runs (traffic interleaves across an epoch
	// boundary); a plan that an install kept keeps its cache, and the
	// caches of plans that neither config runs are dropped, so adaptive
	// reconfiguration cannot accumulate caches for dead rules.
	planComp  *compiledTopo                   // config the edge cache below belongs to
	edgePlans map[topology.EdgeID][]*rulePlan // from planComp, read-only shared
	states    map[*rulePlan]*planState        // schema-position caches, task-owned
	prevComp  *compiledTopo
	lastPlan  *rulePlan // monomorphic planState lookup
	lastState *planState

	// Hot-path scratch, reused across messages. probeBatch values form
	// a free-list stack rather than a single instance: in Synchronous
	// mode a sink callback may re-enter this task's probe (feedback
	// ingestion) while the outer batch's forward is still iterating its
	// grouped results, so each nesting level pops its own batch
	// (batchprobe.go).
	pbFree      []*probeBatch
	rs          routeScratch // batch-routing scratch
	schemaCache map[[2]*tuple.Schema]*tuple.Schema
	lastJoinKey [2]*tuple.Schema
	lastJoined  *tuple.Schema
	arena       tuple.Arena // join results that outlive their probe batch (batchprobe.go)
}

func newTask(e *Engine, k taskKey, s *topology.Store) *task {
	t := &task{
		e:           e,
		key:         k,
		store:       s,
		states:      map[*rulePlan]*planState{},
		schemaCache: map[[2]*tuple.Schema]*tuple.Schema{},
	}
	t.state, t.tier = e.newBackend()
	for _, rel := range s.Rels {
		if w := e.window(rel); w > 0 {
			tau := rel + "." + tuple.EventTime
			t.wins = append(t.wins, int64(w))
			t.tauNames = append(t.tauNames, tau)
			if int64(w) > t.wMax {
				t.wMax = int64(w)
			}
		}
	}
	t.winAll = len(t.wins) > 0 && len(t.wins) == len(s.Rels)
	return t
}

// newBackend builds a task store for this engine's config. tier is the
// same columnar store again when the hot budget enables its spill tier
// (see task.tier); without a budget nothing ever demotes, so the store
// creates no spill file and needs no teardown.
func (e *Engine) newBackend() (state stateBackend, tier *columnarState) {
	if e.cfg.StateBackend != BackendColumnar {
		return newContainerState(), nil
	}
	cs := newColumnarState(e.cfg.StateSpillDir, e.metrics, e.fail)
	if e.cfg.StateHotBytes > 0 {
		tier = cs
	}
	return cs, tier
}

// accountState applies a backend byte delta to the task gauges and the
// engine-wide store accounting, returning the new global store total.
func (t *task) accountState(delta, idxDelta int64) int64 {
	t.stateBytes.Add(delta)
	if idxDelta != 0 {
		t.stateIdxBytes.Add(idxDelta)
		t.e.metrics.indexBytes.Add(idxDelta)
	}
	return t.e.metrics.storeBytes.Add(delta)
}

func (t *task) requestPrune(cut tuple.Time) {
	t.e.inflight.Add(1)
	t.e.sub.send(t, message{kind: kindPrune, epoch: int64(cut)})
}

// handle applies the compiled ruleset valid for the message's epoch
// (Alg. 4).
func (t *task) handle(msg *message) {
	if msg.ingestWall > 0 && t.e.metrics.sampleLag() {
		t.e.metrics.recordLag(t.e.now() - msg.ingestWall)
	}
	t.e.mu.RLock()
	ec := t.e.configFor(msg.epoch)
	t.e.mu.RUnlock()
	if ec == nil {
		return
	}
	if t.planComp != ec.comp {
		t.setComp(ec.comp)
	}
	measure := t.e.cfg.MeasuredCosts
	for _, rp := range t.edgePlans[msg.edge] {
		var start int64
		if measure {
			start = t.e.now()
		}
		n := len(msg.batch)
		switch rp.kind {
		case topology.StoreRule:
			for _, tp := range msg.batch {
				t.insert(tp, msg.seq)
			}
			if measure && n > 0 {
				t.insertNanos.Add(t.e.now() - start)
				t.insertTuples.Add(int64(n))
			}
		case topology.ProbeRule:
			t.probeBatched(msg, rp, t.stateFor(rp))
			if measure && n > 0 {
				t.probeNanos.Add(t.e.now() - start)
				t.probeTuples.Add(int64(n))
			}
		}
	}
}

// setComp switches the task to another installed config's compiled
// plans; the outgoing config stays the previous one (epoch-boundary
// traffic flips between the two). Caches of the plans either runs stay,
// the others are dropped.
func (t *task) setComp(comp *compiledTopo) {
	if comp != t.prevComp {
		for rp := range t.states {
			if !comp.runs(t.key.store, rp) && !t.planComp.runs(t.key.store, rp) {
				delete(t.states, rp)
			}
		}
	}
	t.planComp, t.prevComp = comp, t.planComp
	t.edgePlans = comp.rules[t.key.store]
	t.lastPlan, t.lastState = nil, nil
	// The two generations' probe keys are the live ones; the store stops
	// indexing the rest.
	var prev []int32
	if t.prevComp != nil {
		prev = t.prevComp.keys[t.key.store]
	}
	if d := t.state.retain(comp.keys[t.key.store], prev); d != 0 {
		t.accountState(d, d)
	}
}

// stateFor returns the task-owned planState of the rule plan, with a
// monomorphic inline slot (most tasks execute one probe rule).
func (t *task) stateFor(rp *rulePlan) *planState {
	if rp == t.lastPlan {
		return t.lastState
	}
	st := t.states[rp]
	if st == nil {
		st = &planState{}
		t.states[rp] = st
	}
	t.lastPlan, t.lastState = rp, st
	return st
}

// markDirty records an epoch whose materialized content changed since
// the last incremental checkpoint.
func (t *task) markDirty(ep int64) {
	if t.lastDirtyOK && ep == t.lastDirty {
		return
	}
	if t.dirtyEpochs == nil {
		t.dirtyEpochs = map[int64]struct{}{}
	}
	t.dirtyEpochs[ep] = struct{}{}
	t.lastDirty, t.lastDirtyOK = ep, true
}

// lostEpoch records that the epoch left the state (a prune or an
// eviction emptied it): its mark goes, and the next cut tells the
// checkpointer which epochs are still resident, so a chain segment of
// the epoch becomes a tombstone.
func (t *task) lostEpoch(ep int64) {
	delete(t.dirtyEpochs, ep)
	t.lostEpochs, t.lastDirtyOK = true, false
}

func (t *task) insert(tp *tuple.Tuple, seq uint64) {
	// State is keyed by the tuple's arrival epoch: each tuple is
	// materialized exactly once, and probes scan all epochs within
	// their window.
	ep := t.e.Epoch(tp.TS)
	t.markDirty(ep)
	delta, idxDelta := t.state.insert(tp, seq, ep)
	t.storedCount.Add(1)
	t.e.metrics.stored.Add(1)
	bytes := t.accountState(delta, idxDelta)
	// Tier layer: above the hot budget, cold whole epochs move to disk.
	// Demotion relocates bytes without dropping tuples, so it runs
	// before — and usually instead of — the eviction policy below.
	if t.tier != nil && bytes > t.e.cfg.StateHotBytes {
		bytes = t.demoteToBudget(bytes)
	}
	// Bounded-memory layer: the state budget is enforced against real
	// resident state (payload + structure + index overhead) by shedding
	// whole epochs from this task; other tasks shed on their own next
	// insert. Only the memory budget fails the engine.
	if lim := t.e.cfg.StateLimitBytes; lim > 0 && bytes > lim {
		bytes = t.evictToLimit(lim)
	}
	if lim := t.e.cfg.MemoryLimitBytes; lim > 0 && bytes > lim {
		t.e.fail(ErrMemoryLimit)
	}
}

// evictToLimit sheds this task's oldest epochs until global state fits
// the budget again or only the arrival epoch remains, counting every
// drop. Deterministic: eviction happens on the task's own execution
// context, ordered by the schedule like any other state mutation. Each
// shed epoch is journaled as an observed decision (journal.go): replay
// re-makes evictions by re-running inserts, and recovery can verify
// the re-made decisions against the logged ones.
func (t *task) evictToLimit(lim int64) (bytes int64) {
	bytes = t.e.metrics.storeBytes.Load()
	for bytes > lim {
		// Demote-first under a hot budget: moving a cold epoch to disk
		// frees resident bytes without losing tuples, so eviction only
		// fires once nothing demotable remains (one hot epoch left and
		// the overflow persists — e.g. stubs alone exceed the limit).
		if t.tier != nil {
			if d, xd, ok := t.tier.demoteOldest(); ok {
				bytes = t.accountState(d, xd)
				continue
			}
		}
		epoch, removed, delta, idxDelta, ok := t.state.dropOldest()
		if !ok {
			return bytes
		}
		t.lostEpoch(epoch)
		t.storedCount.Add(int64(-removed))
		t.e.metrics.stored.Add(int64(-removed))
		t.e.metrics.evictedEpochs.Add(1)
		t.e.metrics.evictedTuples.Add(int64(removed))
		if j := t.e.journal(); j != nil {
			if err := j.LogEvict(t.key.store, t.key.part, epoch, removed, t.e.seq.Load()); err != nil {
				t.e.fail(fmt.Errorf("runtime: write-ahead log append: %w", err))
			}
		}
		bytes = t.accountState(delta, idxDelta)
	}
	return bytes
}

// demoteToBudget spills this task's coldest epochs until global
// resident state fits the hot budget again or only the arrival epoch
// remains hot. Demotion never drops a tuple — results are unaffected,
// which is why (unlike evictions) it is not journaled: replay re-makes
// the same demotions by re-running the same inserts.
func (t *task) demoteToBudget(bytes int64) int64 {
	for bytes > t.e.cfg.StateHotBytes {
		d, xd, ok := t.tier.demoteOldest()
		if !ok {
			return bytes
		}
		bytes = t.accountState(d, xd)
	}
	return bytes
}

// resetVolatile drops the task's rebuildable caches after a supervised
// panic: compiled-plan bindings, schema-position caches, probe scratch.
// Materialized state and its gauges stay — they are the task's durable
// content; the caches are rebuilt from the installed configs on the
// next message.
func (t *task) resetVolatile() {
	t.planComp, t.edgePlans = nil, nil
	t.states = map[*rulePlan]*planState{}
	t.prevComp = nil
	t.lastPlan, t.lastState = nil, nil
	t.pbFree = nil
	t.schemaCache = map[[2]*tuple.Schema]*tuple.Schema{}
	t.lastJoinKey, t.lastJoined = [2]*tuple.Schema{}, nil
}

// windowOK checks, for every windowed base relation materialized in the
// stored tuple, that the probe is within that relation's window — via
// the precomputed τ column positions.
func (t *task) windowOK(probe, stored *tuple.Tuple, sh *storedShape) bool {
	for i := range t.wins {
		pos := sh.tauPos[i]
		if pos < 0 {
			continue
		}
		if int64(probe.TS)-stored.At(pos).Int() > t.wins[i] {
			return false
		}
	}
	return true
}

func (t *task) join(probe, stored *tuple.Tuple) *tuple.Tuple {
	return t.arena.Join(probe, stored, t.joinedSchema(probe.Schema, stored.Schema))
}

// joinedSchema returns (caching it per task) the schema of probe's
// columns followed by stored's.
func (t *task) joinedSchema(probe, stored *tuple.Schema) *tuple.Schema {
	key := [2]*tuple.Schema{probe, stored}
	if key == t.lastJoinKey {
		return t.lastJoined
	}
	joined := t.schemaCache[key]
	if joined == nil {
		joined = probe.Concat(stored)
		t.schemaCache[key] = joined
	}
	t.lastJoinKey, t.lastJoined = key, joined
	return joined
}

// forward routes one probe's join results along the rule's compiled
// emissions: sinks record each result; probe and store edges receive
// the results batched per target task, under the originating tuple's
// epoch configuration, which stays consistent along the whole chain.
// results may be the probe batch's scratch: emitBatchLocked copies a
// longer batch, but sends a batch of one as it is, so a single result
// leaves for another task in an array of its own.
func (t *task) forward(out []emitStep, msg *message, results []*tuple.Tuple) {
	e := t.e
	e.mu.RLock()
	defer e.mu.RUnlock()
	var own []*tuple.Tuple
	for i := range out {
		batch := results
		if len(results) == 1 && out[i].sink == "" {
			if own == nil {
				own = []*tuple.Tuple{results[0]}
			}
			batch = own
		}
		// A sink delivery only touches sinkMu, safe under e.mu.RLock.
		e.emitBatchLocked(&out[i], message{epoch: msg.epoch, batch: batch, seq: msg.seq, ingestWall: msg.ingestWall}, &t.rs)
	}
}

// prune drops stored tuples whose event time precedes the cutoff. The
// backend maintains its indices across the prune (no rebuild on the
// next probe) and releases emptied epochs entirely.
func (t *task) prune(cut tuple.Time) {
	var start int64
	if t.e.cfg.MeasuredCosts {
		start = t.e.now()
	}
	// A prune can only touch epochs at or below the cutoff's epoch
	// (a tuple's epoch is derived from the same timestamp the prune
	// compares against): those that stay are marked, those it emptied
	// are lost.
	cutEp := t.e.Epoch(cut)
	for _, ep := range t.state.epochs() {
		if ep <= cutEp {
			t.markDirty(ep)
		}
	}
	removed, delta, idxDelta := t.state.prune(cut)
	for ep := range t.dirtyEpochs {
		if ep <= cutEp && t.state.epochLen(ep) == 0 {
			t.lostEpoch(ep)
		}
	}
	if t.e.cfg.MeasuredCosts && removed > 0 {
		t.pruneNanos.Add(t.e.now() - start)
		t.pruneTuples.Add(int64(removed))
	}
	if removed != 0 || delta != 0 {
		t.storedCount.Add(int64(-removed))
		t.e.metrics.stored.Add(int64(-removed))
		t.accountState(delta, idxDelta)
	}
}

// clearState drops the task's entire materialized state and closes its
// spill file: its store was retired (no installed configuration names
// it), so no probe can reach this state again, and Stop, which closes
// the files of installed stores only, no longer sees the task.
func (t *task) clearState() {
	removed, delta, idxDelta := t.state.clear()
	if removed != 0 || delta != 0 {
		t.storedCount.Add(int64(-removed))
		t.e.metrics.stored.Add(int64(-removed))
		t.e.metrics.retiredTuples.Add(int64(removed))
		t.accountState(delta, idxDelta)
	}
	if t.tier != nil {
		if err := t.tier.store.close(); err != nil {
			t.e.fail(err)
		}
		t.tier = nil
	}
}
