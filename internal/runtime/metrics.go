package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/topology"
)

// Metrics aggregates runtime counters. All methods are safe for
// concurrent use; Snapshot returns a consistent copy for reporting.
type Metrics struct {
	ingested     atomic.Int64 // raw input tuples
	probeSent    atomic.Int64 // tuples sent between tasks (the paper's probe cost)
	probeCands   atomic.Int64 // stored rows the local indices handed to probes
	probeRejects atomic.Int64 // per-epoch index lookups the filters spared probes
	probeSkips   atomic.Int64 // probe tuples the store filters answered
	messages     atomic.Int64 // messaging events (broadcast counts once per task)
	stored       atomic.Int64 // tuples currently materialized across stores
	storeBytes   atomic.Int64 // resident state bytes incl. index overhead
	indexBytes   atomic.Int64 // index-overhead portion of storeBytes
	results      atomic.Int64 // join results emitted across all queries
	shed         atomic.Int64 // tuples dropped at the flow-control admission gate

	// Bounded-memory counters (epochs shed at Config.StateLimitBytes)
	// and store retirement.
	evictedEpochs atomic.Int64 // whole epochs shed at the state budget
	evictedTuples atomic.Int64 // tuples those epochs carried
	retiredTuples atomic.Int64 // tuples released by store retirement

	// Spill-tier counters (BackendColumnar under a hot budget,
	// spill.go; all zero otherwise). spilledBytes is
	// a gauge of live on-disk segment payload; the epoch counters are
	// cumulative tier transitions; the cold-probe counters split probes
	// that survived a cold stub's filters by whether the read-through
	// found candidates.
	spilledBytes    atomic.Int64
	demotedEpochs   atomic.Int64
	promotedEpochs  atomic.Int64
	coldProbeHits   atomic.Int64
	coldProbeMisses atomic.Int64

	// Supervisor counters (supervise.go): panics recovered on the
	// task-execution path, and how many of those led to a supervised
	// restart (the rest exhausted the budget and failed the engine).
	recoveredPanics atomic.Int64
	taskRestarts    atomic.Int64

	// Install-barrier counters (barrier.go): wall nanoseconds spent
	// waiting there for a re-optimization still being solved, and the
	// solves that had finished before their barrier was reached.
	barrierWait atomic.Int64
	solvesAhead atomic.Int64

	// Churn-step meters (adaptive.go): the configuration changes
	// installed after the set-up, and the wall nanoseconds they spent
	// solving, compiling and installing.
	steps       atomic.Int64
	stepSolve   atomic.Int64
	stepCompile atomic.Int64
	stepInstall atomic.Int64

	mu       sync.Mutex
	byQuery  map[string]int64
	latSum   time.Duration
	latCount int64
	latMax   time.Duration

	// Processing lag: ingest-to-handling delay of tuple messages, the
	// paper's per-tuple latency signal (rises when workers buffer).
	lagSum   atomic.Int64
	lagCount atomic.Int64
	lagTick  atomic.Int64 // sampling counter
}

// avgLag returns the sampled ingest-to-handling delay and sample count.
func (m *Metrics) avgLag() (time.Duration, int64) {
	n := m.lagCount.Load()
	if n == 0 {
		return 0, 0
	}
	return time.Duration(m.lagSum.Load() / n), n
}

// recordLag samples the ingest-to-handling delay of one message.
func (m *Metrics) recordLag(nanos int64) {
	if nanos <= 0 {
		return
	}
	m.lagSum.Add(nanos)
	m.lagCount.Add(1)
}

// sampleLag reports whether this message should record its lag (1 in 8).
func (m *Metrics) sampleLag() bool { return m.lagTick.Add(1)&7 == 0 }

func newMetrics() *Metrics { return &Metrics{byQuery: map[string]int64{}} }

// recordResultBatch records n results of one query sharing a latency
// sample — a probe's result batch reaches the sink together, so the
// clock read and lock are paid once and the sample is weighted by n.
func (m *Metrics) recordResultBatch(queryName string, latency time.Duration, n int) {
	m.results.Add(int64(n))
	m.mu.Lock()
	m.byQuery[queryName] += int64(n)
	if latency > 0 {
		m.latSum += latency * time.Duration(n)
		m.latCount += int64(n)
		if latency > m.latMax {
			m.latMax = latency
		}
	}
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of the metrics.
type Snapshot struct {
	Ingested  int64
	ProbeSent int64
	Messages  int64
	Stored    int64
	// ProbeCandidates counts the stored rows index scans handed to
	// candidate evaluation, over all probes — every row of every chain a
	// probe walked, on either backend — what probes pay at the stores,
	// where ProbeSent is what they pay on the wire. Against the rows that
	// actually joined it measures how well the index keys fit the rules:
	// an index keyed by every equality predicate of its rule delivers
	// little beyond the matches plus out-of-window rows of not-yet-pruned
	// epochs and rows that arrived after the probe.
	ProbeCandidates int64
	// ProbeFilterRejects counts the per-epoch index lookups probes were
	// spared: a probe visits every epoch in its window reach, and a filter
	// answers for an epoch that holds no row under the probe's key without
	// touching its table. Either the store's filter answered for every
	// hot epoch at once (ProbeStoreSkips) — one reject per hot epoch in
	// the probe's reach — or the epoch's own index filter (one word), on
	// a hot epoch and on a cold one (its stub's) alike. Against ProbeSent
	// × resident epochs it says how much of a long window a probe never
	// touched.
	ProbeFilterRejects int64
	// ProbeStoreSkips counts the probe tuples a store filter answered: the
	// store held no hot row under the probe's key, so the probe visited no
	// hot epoch (DESIGN.md §10).
	ProbeStoreSkips int64
	// StoreBytes is the resident materialized-state footprint: tuple
	// payloads plus storage structure plus index overhead (the seed
	// accounting ignored indices; IndexBytes is that portion).
	StoreBytes int64
	IndexBytes int64
	// EvictedEpochs/EvictedTuples count the whole epochs shed at
	// StateLimitBytes and the tuples they held; RetiredTuples counts state
	// released when a store left every installed configuration.
	EvictedEpochs int64
	EvictedTuples int64
	RetiredTuples int64
	// Spill-tier observability (BackendColumnar under StateHotBytes;
	// all zero otherwise): SpilledBytes gauges
	// live on-disk segment payload, DemotedEpochs/PromotedEpochs count
	// tier transitions (a promotion is a write into a cold epoch), and ColdProbeHits/ColdProbeMisses split probes
	// that reached a cold segment's data by whether they found
	// candidates — tiering is observable, not inferred.
	SpilledBytes    int64
	DemotedEpochs   int64
	PromotedEpochs  int64
	ColdProbeHits   int64
	ColdProbeMisses int64
	Results         int64
	ByQuery         map[string]int64
	AvgLatency      time.Duration
	MaxLatency      time.Duration
	LatCount        int64
	// AvgLag is the sampled ingest-to-handling delay of tuple messages,
	// the per-tuple latency the paper's Fig. 8 plots (it rises with
	// buffering even when no results are produced).
	AvgLag   time.Duration
	LagCount int64
	// ShedTuples counts ingests dropped at the flow-control admission
	// gate (SubstrateFlow with ShedOnOverload).
	ShedTuples int64
	// RecoveredPanics counts panics caught by the task supervisor;
	// TaskRestarts counts the supervised restarts they triggered
	// (RecoveredPanics > TaskRestarts means some task exhausted its
	// restart budget and the engine failed with ErrTaskFailed).
	RecoveredPanics int64
	TaskRestarts    int64
	// BarrierWait is the wall time spent at the install barrier waiting
	// for a re-optimization still being solved beside the stream (by
	// Ingest, and by Drain, Stop and checkpoint walks, which pass the
	// same barrier); SolvesAhead counts the solves that had already
	// finished when their barrier was reached and cost the stream only
	// their install.
	BarrierWait time.Duration
	SolvesAhead int64
	// Steps counts the configuration changes the adaptive controller
	// installed after the set-up (re-plans and query churn; a decision
	// equal to the installed one is not a step). StepSolve, StepCompile
	// and StepInstall sum their wall time in the joint solves, in
	// core's compile and in Engine.Install.
	Steps       int64
	StepSolve   time.Duration
	StepCompile time.Duration
	StepInstall time.Duration
}

// Snapshot returns a consistent copy of all counters.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	byQ := make(map[string]int64, len(m.byQuery))
	for k, v := range m.byQuery {
		byQ[k] = v
	}
	var avg time.Duration
	if m.latCount > 0 {
		avg = m.latSum / time.Duration(m.latCount)
	}
	latMax, latCount := m.latMax, m.latCount
	m.mu.Unlock()
	avgLag, lagN := m.avgLag()
	return Snapshot{
		AvgLag:             avgLag,
		LagCount:           lagN,
		ShedTuples:         m.shed.Load(),
		RecoveredPanics:    m.recoveredPanics.Load(),
		TaskRestarts:       m.taskRestarts.Load(),
		BarrierWait:        time.Duration(m.barrierWait.Load()),
		SolvesAhead:        m.solvesAhead.Load(),
		Steps:              m.steps.Load(),
		StepSolve:          time.Duration(m.stepSolve.Load()),
		StepCompile:        time.Duration(m.stepCompile.Load()),
		StepInstall:        time.Duration(m.stepInstall.Load()),
		Ingested:           m.ingested.Load(),
		ProbeSent:          m.probeSent.Load(),
		ProbeCandidates:    m.probeCands.Load(),
		ProbeFilterRejects: m.probeRejects.Load(),
		ProbeStoreSkips:    m.probeSkips.Load(),
		Messages:           m.messages.Load(),
		Stored:             m.stored.Load(),
		StoreBytes:         m.storeBytes.Load(),
		IndexBytes:         m.indexBytes.Load(),
		EvictedEpochs:      m.evictedEpochs.Load(),
		EvictedTuples:      m.evictedTuples.Load(),
		RetiredTuples:      m.retiredTuples.Load(),
		SpilledBytes:       m.spilledBytes.Load(),
		DemotedEpochs:      m.demotedEpochs.Load(),
		PromotedEpochs:     m.promotedEpochs.Load(),
		ColdProbeHits:      m.coldProbeHits.Load(),
		ColdProbeMisses:    m.coldProbeMisses.Load(),
		Results:            m.results.Load(),
		ByQuery:            byQ,
		AvgLatency:         avg,
		MaxLatency:         latMax,
		LatCount:           latCount,
	}
}

// ResetLatency clears the latency and lag aggregates (used for
// per-interval latency series in the adaptive experiments, Fig. 8).
func (m *Metrics) ResetLatency() {
	m.mu.Lock()
	m.latSum, m.latCount, m.latMax = 0, 0, 0
	m.mu.Unlock()
	m.lagSum.Store(0)
	m.lagCount.Store(0)
}

// String renders a one-line summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("in=%d probes=%d msgs=%d stored=%d (%.1f MiB) results=%d avgLat=%v",
		s.Ingested, s.ProbeSent, s.Messages, s.Stored,
		float64(s.StoreBytes)/(1<<20), s.Results, s.AvgLatency)
}

// TaskGauge is one task's pressure reading: mailbox queue depth,
// materialized state, cumulative load, and busy time — the per-task
// overload signals of the execution substrate.
type TaskGauge struct {
	Store      topology.StoreID
	Part       int
	QueueDepth int   // messages waiting in the task's mailbox
	Stored     int64 // tuples materialized in the task
	StateBytes int64 // resident state bytes incl. index overhead
	IndexBytes int64 // index-overhead portion of StateBytes
	// SpilledBytes is the task's live on-disk segment payload (columnar
	// backend under a hot budget; zero elsewhere) — NOT part of
	// StateBytes, which gauges resident memory.
	SpilledBytes int64
	Backend      string // state backend serving this task
	Handled      int64  // messages handled since spawn
	BusyNanos    int64  // time spent handling batches (async substrates)
	Restarts     int64  // supervised restarts after recovered panics
	Healthy      bool   // false once the task exhausted its restart budget
	// Task meters (Config.MeasuredCosts; zero otherwise).
	ProbeNanos   int64
	ProbeTuples  int64
	InsertNanos  int64
	InsertTuples int64
	PruneNanos   int64
	PruneTuples  int64
	// ProbeCandidates counts the stored rows this task's index scans
	// handed to candidate evaluation (see Snapshot.ProbeCandidates).
	ProbeCandidates int64
	// ProbeFilterRejects counts the per-epoch index lookups this task's
	// filters answered (see Snapshot.ProbeFilterRejects).
	ProbeFilterRejects int64
	// ProbeStoreSkips counts the probe tuples this task's store filters
	// answered (see Snapshot.ProbeStoreSkips).
	ProbeStoreSkips int64
}

// TaskGauges returns a pressure reading per task of every installed
// store, sorted by store and partition. Gauges are sampled individually
// — the reading is not an atomic cross-task snapshot.
func (e *Engine) TaskGauges() []TaskGauge {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []TaskGauge
	for t := range e.liveTasks() {
		depth := 0
		if t.mailbox != nil {
			depth = t.mailbox.depth()
		}
		var spilled int64
		if t.tier != nil {
			spilled = t.tier.spilled.Load()
		}
		out = append(out, TaskGauge{
			Store:        t.key.store,
			Part:         t.key.part,
			QueueDepth:   depth,
			Stored:       t.storedCount.Load(),
			StateBytes:   t.stateBytes.Load(),
			IndexBytes:   t.stateIdxBytes.Load(),
			SpilledBytes: spilled,
			Backend:      e.cfg.StateBackend.String(),
			Handled:      t.handled.Load(),
			BusyNanos:    t.busyNanos.Load(),
			Restarts:     t.restarts.Load(),
			Healthy:      !t.failed.Load(),
			ProbeNanos:   t.probeNanos.Load(),
			ProbeTuples:  t.probeTuples.Load(),
			InsertNanos:  t.insertNanos.Load(),
			InsertTuples: t.insertTuples.Load(),
			PruneNanos:   t.pruneNanos.Load(),
			PruneTuples:  t.pruneTuples.Load(),

			ProbeCandidates:    t.probeCands.Load(),
			ProbeFilterRejects: t.probeRejects.Load(),
			ProbeStoreSkips:    t.probeSkips.Load(),
		})
	}
	return out
}

// Pressure is the engine's aggregated overload signal: how much work is
// queued, where the deepest backlog sits, the flow substrate's credit
// balance, and the sampled processing lag.
type Pressure struct {
	QueuedMessages int64            // Σ task queue depths
	QueuedBytes    int64            // approximate bytes buffered in mailboxes
	MaxQueueDepth  int              // deepest single task queue
	MaxQueueStore  topology.StoreID // store owning the deepest queue
	Credits        int64            // flow-substrate balance (0 elsewhere)
	ShedTuples     int64            // tuples dropped at the admission gate
	AvgLag         time.Duration    // sampled ingest-to-handling delay
}

// Pressure aggregates the per-task gauges into one overload reading.
// It is polled on hot control paths (sampling loops), so it reads the
// queue depths directly instead of building the sorted TaskGauges
// slice.
func (e *Engine) Pressure() Pressure {
	p := Pressure{
		QueuedBytes: e.queuedBytes.Load(),
		ShedTuples:  e.metrics.shed.Load(),
	}
	p.AvgLag, _ = e.metrics.avgLag()
	e.mu.RLock()
	for t := range e.liveTasks() {
		if t.mailbox == nil {
			continue
		}
		d := t.mailbox.depth()
		p.QueuedMessages += int64(d)
		if d > p.MaxQueueDepth {
			p.MaxQueueDepth = d
			p.MaxQueueStore = t.key.store
		}
	}
	e.mu.RUnlock()
	switch sub := e.sub.(type) {
	case *flowSubstrate:
		p.Credits = sub.creditsAvailable()
	case *simSubstrate:
		p.Credits = sub.creditsAvailable()
	}
	return p
}
