// Package clash is a Go implementation of CLASH — joint optimization and
// execution of multiple multi-way stream joins, reproducing "Optimizing
// Multiple Multi-Way Stream Joins" (Dossinger & Michel, ICDE 2021).
//
// The library answers continuous windowed equi-join queries over data
// streams. Queries are written in the paper's notation:
//
//	q1: R(a) S(a,b) T(b)
//
// and are jointly optimized into a shared topology of partitioned
// relation stores connected by probe orders, by solving an integer
// linear program that shares probe-order prefixes between queries
// (multi-query optimization). The topology executes on an in-process
// scale-out runtime (store tasks multiplexed onto a worker pool),
// adapts to changing data characteristics at epoch granularity, and
// supports query arrival and expiry at runtime.
//
// Quick start:
//
//	eng, err := clash.Start(clash.Config{
//		Workload: "q1: R(a) S(a,b) T(b)",
//	})
//	eng.OnResult("q1", func(t *clash.Tuple) { fmt.Println(t) })
//	eng.Ingest("R", 1, clash.Int(7))
//	eng.Ingest("S", 2, clash.Int(7), clash.Int(3))
//	eng.Ingest("T", 3, clash.Int(3))
//	eng.Stop()
package clash

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/recovery"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// Re-exported model types. They alias the internal implementations, so
// values returned by the engine can be used with the full method sets.
type (
	// Query is a multi-way windowed equi-join over streamed relations.
	Query = query.Query
	// Relation describes one streamed input relation.
	Relation = query.Relation
	// Catalog maps relation names to their schemas and windows.
	Catalog = query.Catalog
	// Predicate is an equi-join predicate between qualified attributes.
	Predicate = query.Predicate
	// Attr is a qualified attribute (relation, name).
	Attr = query.Attr
	// Tuple is a typed record with an event timestamp.
	Tuple = tuple.Tuple
	// Value is a typed scalar value.
	Value = tuple.Value
	// Time is an event timestamp in nanoseconds.
	Time = tuple.Time
	// Estimates is a snapshot of data characteristics (rates and
	// selectivities) driving the cost-based optimization.
	Estimates = stats.Estimates
	// Plan is the result of a multi-query optimization run.
	Plan = core.Plan
	// OptimizerOptions configure candidate generation and costing.
	OptimizerOptions = core.Options
	// Topology is a deployable processing strategy.
	Topology = topology.Config
	// MetricsSnapshot is a point-in-time copy of runtime counters. Probe
	// work reads off four of them: ProbeSent (tuples sent between tasks,
	// the paper's objective), ProbeCandidates (stored rows the local
	// indices handed those probes), ProbeFilterRejects (per-epoch index
	// lookups a filter spared them — how much of a long window a probe
	// never touched) and ProbeStoreSkips (probes a store's filter answered
	// for all of its hot epochs at once, each counted in
	// ProbeFilterRejects once per epoch it skipped).
	MetricsSnapshot = runtime.Snapshot
	// SubstrateKind selects the execution substrate (see Config).
	SubstrateKind = runtime.SubstrateKind
	// FlowConfig tunes the flow-controlled substrate.
	FlowConfig = runtime.FlowConfig
	// SimConfig tunes the deterministic simulation substrate: schedule
	// seed, flow-control model, schedule-trace and fault-injection hooks.
	SimConfig = runtime.SimConfig
	// SimEvent is one scheduling decision of the simulation substrate
	// (the schedule trace element).
	SimEvent = runtime.SimEvent
	// VirtualClock is a manually advanced clock: simulated time moves
	// per dispatched message and via Advance (fast-forward).
	VirtualClock = runtime.VirtualClock
	// OverloadPolicy is the flow substrate's behaviour on exhausted
	// credit: block the producer or shed the tuple.
	OverloadPolicy = runtime.OverloadPolicy
	// StateBackendKind selects the task-store implementation (see
	// Config.StateBackend).
	StateBackendKind = runtime.StateBackendKind
	// Pressure is the engine's aggregated overload signal.
	Pressure = runtime.Pressure
	// TaskGauge is one store task's pressure reading.
	TaskGauge = runtime.TaskGauge
	// WALStorage is the append-only two-stream storage the durability
	// layer writes to (see WALConfig).
	WALStorage = recovery.Storage
	// MemWALStorage is an in-memory WALStorage for tests and examples.
	MemWALStorage = recovery.MemStorage
	// DirWALStorage is a directory-backed WALStorage (one append-only
	// file per stream, appended through a shared memory mapping,
	// optionally fsynced per append).
	DirWALStorage = recovery.DirStorage
	// RecoveryStats summarizes what Recover did: checkpoint records
	// composed, tuples restored, WAL records replayed and deduplicated,
	// torn bytes truncated.
	RecoveryStats = recovery.Stats
	// WALStats is a snapshot of the durability layer's counters.
	WALStats = recovery.ManagerStats
	// Committer is an output-commit hook in two phases (see
	// Engine.OnCommit).
	Committer = recovery.Committer
)

// Execution substrates and overload policies (runtime/flow.go).
const (
	// SubstrateAuto resolves from Config.Synchronous: SubstrateSynchronous
	// when it is set, SubstrateFlow otherwise.
	SubstrateAuto = runtime.SubstrateAuto
	// SubstrateSynchronous runs the whole topology on the ingesting
	// goroutine: exact, deterministic; single-goroutine ingest only.
	SubstrateSynchronous = runtime.SubstrateSynchronous
	// SubstrateFlow, the asynchronous default, bounds queueing with
	// credit-based backpressure and runs all tasks on a shared worker
	// pool. A FlowConfig.MailboxCredits grant the run cannot exhaust
	// (e.g. 1 << 30) never gates admission: overloaded workers buffer
	// until MemoryLimitBytes fails the engine (the paper's Fig. 8a).
	SubstrateFlow = runtime.SubstrateFlow
	// SubstrateSim is the deterministic simulation substrate: a seeded
	// single-threaded scheduler over a virtual clock. One seed
	// reproduces one exact interleaving; a seed sweep explores
	// thousands. Single-goroutine ingest only.
	SubstrateSim = runtime.SubstrateSim
	// BlockOnOverload throttles Ingest when credits run out (lossless).
	BlockOnOverload = runtime.BlockOnOverload
	// ShedOnOverload drops tuples when credits run out (lossy, live).
	ShedOnOverload = runtime.ShedOnOverload
)

// State backends (runtime/state.go, DESIGN.md §10).
const (
	// BackendContainer is the default store layout: per-epoch containers
	// probed one candidate at a time — the differential oracle for the
	// columnar layout. Both backends share one index kernel, keyed by
	// all equality predicates of the probing rule, with a negative
	// filter built into every index.
	BackendContainer = runtime.BackendContainer
	// BackendColumnar is the epoch-ring columnar store: flat per-epoch
	// segments, open-addressed hash indices, int32 posting chains. With
	// StateHotBytes > 0 it also spills cold whole epochs to an mmap'd
	// on-disk segment file behind stubs that keep the epoch's index
	// filters, so probes skip cold segments without touching disk: results stay byte-identical,
	// resident memory follows the hot budget.
	BackendColumnar = runtime.BackendColumnar
)

// ErrMemoryLimit is the terminal failure of an engine that exceeded
// its MemoryLimitBytes budget (state plus queued messages).
var ErrMemoryLimit = runtime.ErrMemoryLimit

// ErrTaskFailed is the terminal failure of an engine with a task that
// panicked more than three times in a row (the supervisor's restart
// budget).
var ErrTaskFailed = runtime.ErrTaskFailed

// ErrCorruptSnapshot is reported (wrapped) by Restore for truncated or
// corrupt snapshot bytes.
var ErrCorruptSnapshot = runtime.ErrCorruptSnapshot

// ErrCorruptWAL is reported (wrapped) by Recover when a CRC-valid WAL
// record fails to decode — real corruption, as opposed to a torn tail,
// which recovery silently truncates away.
var ErrCorruptWAL = recovery.ErrCorruptWAL

// ErrWALNotEmpty is reported by Start when Config.WAL points at
// storage that already holds history — restarting over it is Recover's
// job; overwriting it would lose the one copy of the state.
var ErrWALNotEmpty = recovery.ErrStorageNotEmpty

// NewMemWALStorage returns an empty in-memory WALStorage. State written
// to it dies with the process — use it for tests, examples, and
// overhead measurement, not durability.
func NewMemWALStorage() *MemWALStorage { return recovery.NewMemStorage() }

// NewDirWALStorage opens (or creates) a directory-backed WALStorage:
// one append-only file per stream. With syncEachAppend, every record is
// fsynced before Ingest returns — the durable configuration.
func NewDirWALStorage(dir string, syncEachAppend bool) (*DirWALStorage, error) {
	return recovery.NewDirStorage(dir, syncEachAppend)
}

// Int wraps an int64 as a Value.
func Int(v int64) Value { return tuple.IntValue(v) }

// Str wraps a string as a Value.
func Str(v string) Value { return tuple.StringValue(v) }

// Float wraps a float64 as a Value.
func Float(v float64) Value { return tuple.FloatValue(v) }

// Bool wraps a bool as a Value.
func Bool(v bool) Value { return tuple.BoolValue(v) }

// ParseQuery parses one query in the paper's notation, returning the
// query and the relations it declares.
func ParseQuery(text string) (*Query, []*Relation, error) { return query.Parse(text) }

// ParseWorkload parses one query per line and a merged catalog.
func ParseWorkload(text string) ([]*Query, *Catalog, error) { return query.ParseWorkload(text) }

// NewEstimates returns an empty estimates snapshot with the given
// fallback selectivity for unobserved predicates.
func NewEstimates(defaultSelectivity float64) *Estimates {
	return stats.NewEstimates(defaultSelectivity)
}

// Optimize jointly optimizes the queries against the estimates (the
// paper's CMQO). Use OptimizerOptions' zero value for defaults.
func Optimize(queries []*Query, est *Estimates, opts OptimizerOptions) (*Plan, error) {
	return core.NewOptimizer(opts).Optimize(queries, est)
}

// OptimizeIndividually optimizes each query in isolation (the paper's
// per-query baseline used by the FS/SS sharing strategies).
func OptimizeIndividually(queries []*Query, est *Estimates, opts OptimizerOptions) ([]*Plan, error) {
	return core.NewOptimizer(opts).OptimizeIndividually(queries, est)
}

// CompilePlans translates plans into a deployable topology. With shared
// true, equal stores and probe-tree prefixes merge across plans.
func CompilePlans(plans []*Plan, shared bool) (*Topology, error) {
	return core.Compile(plans, core.CompileOptions{Shared: shared})
}

// WALConfig enables durable crash recovery (DESIGN.md §11): every
// ingest is written ahead to a CRC-framed log, materialized state is
// checkpointed incrementally every CheckpointEvery ingests, and a
// crashed process resumes via Recover — checkpoint chain plus WAL
// replay, deduplicated by sequence number, exactly once.
type WALConfig struct {
	// Dir is the directory holding the log files. The engine opens it
	// with NewDirWALStorage and owns the handle (Close releases it).
	// Ignored when Storage is set.
	Dir string
	// NoSync skips the per-append fsync on Dir storage: faster, but a
	// machine crash (not just a process crash) can tear the log tail.
	// Recovery still handles torn tails by truncation; the cost is the
	// unsynced suffix, re-ingested from the source.
	NoSync bool
	// Storage overrides Dir with a caller-provided WALStorage. The
	// caller keeps ownership: Close does not release it.
	Storage WALStorage
	// CheckpointEvery is the incremental-checkpoint cadence in ingested
	// tuples (0 = the default, 64). A checkpoint due while the previous
	// one still commits is cut at a later ingest, at the latest twice
	// the cadence after the last one. Smaller means shorter replay after
	// a crash; larger means less checkpoint traffic.
	CheckpointEvery int
}

func (w *WALConfig) open() (st WALStorage, owned io.Closer, err error) {
	if w.Storage != nil {
		return w.Storage, nil, nil
	}
	if w.Dir == "" {
		return nil, nil, errors.New("clash: WALConfig needs Dir or Storage")
	}
	ds, err := recovery.NewDirStorage(w.Dir, !w.NoSync)
	if err != nil {
		return nil, nil, err
	}
	return ds, ds, nil
}

func (w *WALConfig) recoveryConfig() recovery.Config {
	return recovery.Config{CheckpointEvery: w.CheckpointEvery}
}

// Config configures a CLASH engine.
type Config struct {
	// Workload holds one query per line in the paper's notation.
	// Alternatively set Queries and Catalog explicitly.
	Workload string
	// Queries and Catalog override Workload when set.
	Queries []*Query
	Catalog *Catalog

	// DefaultWindow applies to relations without their own window
	// (0 = unbounded history).
	DefaultWindow time.Duration
	// EpochLength enables epoch-based adaptive re-optimization
	// (0 = static plan).
	EpochLength time.Duration
	// Adaptive re-optimizes at epoch boundaries from gathered
	// statistics. Requires EpochLength > 0 (Start and Recover reject it
	// otherwise).
	Adaptive bool
	// IncrementalReopt is ignored: every re-optimization step (query
	// arrival/expiry, epoch boundaries) carries optimizer state from
	// the one before (core.Reopt).
	IncrementalReopt bool
	// MeasuredCosts meters task work: each task counts the nanoseconds
	// and tuples it spends probing, inserting and pruning, read per task
	// from TaskGauges. It is a meter only and moves no plan: the
	// optimizer prices plans by Eq. 1 from the statistics alone. Off by
	// default, since metering reads the clock on every message.
	MeasuredCosts bool
	// Shared enables multi-query optimization and state sharing
	// (default). Independent mode deploys one topology per query.
	Independent bool
	// Optimizer passes through optimizer options.
	Optimizer OptimizerOptions
	// InitialEstimates seed the optimizer before statistics exist. Their
	// degree sketches also drive skew routing: a key whose share reaches
	// 1/parallelism of a partitioned store splits over two candidate
	// tasks (inserts to the less-loaded one, probes to both), and in a
	// Cluster a key whose share of a join class reaches 1/Shards splits
	// that class's tuples over two shards the same way.
	InitialEstimates *Estimates
	// MemoryLimitBytes fails the engine with ErrMemoryLimit when state
	// plus queued messages exceed it (0 = unlimited). It is the one budget
	// that fails; StateLimitBytes sheds instead.
	MemoryLimitBytes int64
	// StateBackend selects the store layout serving every task:
	// BackendContainer (default, the differential oracle) or
	// BackendColumnar. Results are byte-identical across backends; they
	// differ in speed, memory footprint, and GC pressure.
	StateBackend StateBackendKind
	// StateLimitBytes bounds materialized state — tuple payloads plus
	// storage structure plus index overhead (0 = unlimited). At the limit
	// the engine sheds whole epochs, oldest first, with counted drops
	// (MetricsSnapshot.EvictedEpochs/EvictedTuples) and stays live; it
	// never fails the engine. The current arrival epoch is never shed, so
	// a limit requires EpochLength > 0 (Start and Recover reject it
	// otherwise).
	StateLimitBytes int64
	// StateHotBytes enables the spill tier on BackendColumnar and bounds
	// resident (in-memory) state (0 = no tier, nothing ever touches
	// disk): above it, tasks demote their coldest whole epochs to disk
	// instead of evicting them — bounded memory with no lost tuples.
	// Ignored by the container oracle.
	StateHotBytes int64
	// StateSpillDir is where the spill tier places its files, created
	// on the first demotion (default: the OS temp directory).
	StateSpillDir string
	// StepMode drains after every ingest: deterministic results, lower
	// throughput. Meant for tests and examples.
	StepMode bool
	// Synchronous executes the whole topology on the ingesting
	// goroutine: exact, deterministic join semantics with no task
	// goroutines. Ingest must be called from a single goroutine (the
	// Fig. 7 experiments run this way). The default asynchronous flow
	// substrate reproduces overload buffering (Fig. 8) and is exact for
	// two-way joins; a query joining three or more relations on flow or
	// sim without StepMode is refused (Start, Recover, NewCluster and
	// AddQuery return an error), since a multi-hop probe there can race
	// the insert it must meet.
	Synchronous bool
	// Substrate selects the execution substrate explicitly: synchronous,
	// flow-controlled with credit-based backpressure and a shared worker
	// pool (the asynchronous default), or deterministic simulation
	// (seeded schedules over a virtual clock). SubstrateAuto resolves to
	// SubstrateSynchronous when Synchronous is set and to SubstrateFlow
	// otherwise.
	Substrate SubstrateKind
	// Flow tunes the flow-controlled substrate (credit grants, worker
	// count, block-vs-shed overload policy).
	Flow FlowConfig
	// Sim tunes the deterministic simulation substrate (SubstrateSim):
	// schedule seed, flow-control model, trace and fault hooks. Same
	// Sim.Seed, same inputs — same interleaving, byte for byte.
	Sim SimConfig
	// WAL, when set, makes the engine durable: write-ahead logging,
	// incremental checkpoints, and crash recovery via Recover. Start
	// requires empty storage (it refuses to orphan existing history);
	// Recover requires the history Start (or a prior Recover) wrote.
	WAL *WALConfig
	// OnResult registers per-query result callbacks before the first
	// tuple flows — equivalent to calling Engine.OnResult right after
	// Start, under its lifetime rule. Recover requires this form: its WAL
	// replay runs before Recover returns, and callbacks registered
	// afterwards would miss the replayed results.
	OnResult map[string]func(*Tuple)
}

// statsSample is the per-relation, per-epoch statistics sample size.
const statsSample = 256

// Engine is the running system: optimizer, statistics, and the stream
// processing runtime.
type Engine struct {
	cfg Config
	eng *runtime.Engine
	ctl *runtime.Controller

	mgr        *recovery.Manager // non-nil iff Config.WAL is set
	ownedStore io.Closer         // Dir-backed storage the engine opened
	closeOnce  sync.Once
	closeErr   error
}

// Start optimizes the workload and launches the engine. With Config.WAL
// set, the storage must be empty — restarting over existing history is
// Recover's job, and silently orphaning it would lose the one copy of
// the state.
func Start(cfg Config) (*Engine, error) {
	if cfg.WAL == nil {
		return start(cfg)
	}
	st, owned, err := cfg.WAL.open()
	if err != nil {
		return nil, err
	}
	mgr, err := recovery.NewManager(st, cfg.WAL.recoveryConfig())
	if err != nil {
		if owned != nil {
			owned.Close()
		}
		return nil, err
	}
	e, err := start(cfg)
	if err != nil {
		if owned != nil {
			owned.Close()
		}
		return nil, err
	}
	e.eng.SetJournal(mgr)
	mgr.Bind(e.eng)
	e.mgr, e.ownedStore = mgr, owned
	return e, nil
}

// Recover rebuilds a durable engine from its WAL directory after a
// crash: the newest intact incremental-checkpoint chain restores the
// bulk of the state, the WAL suffix past the checkpoint anchor is
// replayed through the normal ingest path (deduplicated by sequence
// number), and the returned engine resumes exactly where the crashed
// one durably left off. Torn log tails — the expected artifact of a
// crash mid-write — are truncated, costing only the unflushed suffix.
//
// The configuration must match the crashed engine's (same workload,
// estimates, and optimizer options, so the compiled topology contains
// the logged stores). Replay happens below the adaptive controller:
// recover adaptive engines before their first epoch boundary.
func Recover(cfg Config) (*Engine, *RecoveryStats, error) {
	if cfg.WAL == nil {
		return nil, nil, errors.New("clash: Recover requires Config.WAL")
	}
	st, owned, err := cfg.WAL.open()
	if err != nil {
		return nil, nil, err
	}
	e, err := start(cfg)
	if err != nil {
		if owned != nil {
			owned.Close()
		}
		return nil, nil, err
	}
	mgr, rstats, err := recovery.Recover(st, e.eng, cfg.WAL.recoveryConfig())
	if err != nil {
		e.eng.Stop()
		if owned != nil {
			owned.Close()
		}
		return nil, nil, err
	}
	e.mgr, e.ownedStore = mgr, owned
	return e, rstats, nil
}

// workload returns the configured queries and catalog, parsing Workload
// when Queries is unset.
func (cfg Config) workload() ([]*Query, *Catalog, error) {
	if cfg.Queries != nil {
		return cfg.Queries, cfg.Catalog, nil
	}
	if cfg.Workload == "" {
		return nil, nil, errors.New("clash: no workload configured")
	}
	return query.ParseWorkload(cfg.Workload)
}

// start optimizes the workload and launches the engine, without a
// journal: Start attaches one before the first Ingest, and Recover after
// replay.
func start(cfg Config) (*Engine, error) {
	qs, cat, err := cfg.workload()
	if err != nil {
		return nil, err
	}
	if cat == nil {
		return nil, errors.New("clash: queries without a catalog")
	}
	for _, q := range qs {
		if err := cat.Validate(q); err != nil {
			return nil, err
		}
		if q.Size() < 2 {
			return nil, fmt.Errorf("clash: query %s joins fewer than two relations", q.Name)
		}
		if err := cfg.exactFor(q); err != nil {
			return nil, err
		}
	}
	if cfg.StateLimitBytes > 0 && cfg.EpochLength <= 0 {
		return nil, errors.New("clash: StateLimitBytes requires EpochLength > 0: a single epoch leaves nothing older to shed")
	}
	if cfg.Adaptive && cfg.EpochLength <= 0 {
		return nil, errors.New("clash: Adaptive requires EpochLength > 0: without epoch boundaries the plan is never re-optimized")
	}
	col := stats.NewCollector(statsSample, 128, 1)
	est := cfg.InitialEstimates
	if est == nil {
		est = stats.NewEstimates(0.01)
		for _, name := range cat.Names() {
			est.SetRate(name, 1000)
		}
	}
	eng := runtime.New(runtime.Config{
		Catalog:          cat,
		DefaultWindow:    cfg.DefaultWindow,
		EpochLength:      cfg.EpochLength,
		MemoryLimitBytes: cfg.MemoryLimitBytes,
		StateBackend:     cfg.StateBackend,
		StateLimitBytes:  cfg.StateLimitBytes,
		StateHotBytes:    cfg.StateHotBytes,
		StateSpillDir:    cfg.StateSpillDir,
		StepMode:         cfg.StepMode,
		Substrate:        cfg.substrate(),
		Flow:             cfg.Flow,
		Sim:              cfg.Sim,
		MeasuredCosts:    cfg.MeasuredCosts,
		Observer:         func(rel string, t *tuple.Tuple) { col.Observe(rel, t) },
	})
	ctl, err := runtime.NewController(eng, runtime.ControllerConfig{
		Optimizer: core.NewOptimizer(cfg.Optimizer),
		Collector: col,
		Shared:    !cfg.Independent,
		Static:    !cfg.Adaptive,
	}, qs, est)
	if err != nil {
		eng.Stop()
		return nil, err
	}
	for name, fn := range cfg.OnResult {
		eng.OnResult(name, fn)
	}
	return &Engine{cfg: cfg, eng: eng, ctl: ctl}, nil
}

// substrate resolves the Synchronous shorthand: an explicit Substrate
// wins, and SubstrateAuto without Synchronous is the flow substrate.
func (cfg Config) substrate() SubstrateKind {
	if cfg.Substrate == SubstrateAuto && cfg.Synchronous {
		return SubstrateSynchronous
	}
	return cfg.Substrate
}

// exactFor refuses a query the configuration would answer lossily: one
// joining three or more relations on the flow or sim substrate without
// StepMode. There a multi-hop probe can reach a store before the insert
// it must meet, whose own probe then rejects it as later-arrived, so
// both directions miss (most of a three-way chain's results). Two-way
// joins are exact on every substrate.
func (cfg Config) exactFor(q *Query) error {
	substrate := cfg.substrate()
	if substrate == SubstrateSynchronous || cfg.StepMode || q.Size() < 3 {
		return nil
	}
	name := "flow"
	if substrate == SubstrateSim {
		name = "sim"
	}
	return fmt.Errorf("clash: query %s joins %d relations, and the %s substrate without StepMode would miss some of its results; set StepMode, or Synchronous with Substrate unset, for exact results", q.Name, q.Size(), name)
}

// Ingest feeds one tuple of the relation into the engine. In adaptive
// mode it also advances the epoch controller; with WAL durability on,
// the tuple is logged before it is applied and an incremental
// checkpoint is cut when the cadence comes due (committed beside the
// stream on the flow substrate; a failed commit fails the engine, and
// the next Ingest returns its error). A tuple of an epoch
// that a re-optimization targets is routed only after that
// configuration is installed, waiting for its solve if need be; a
// failed solve is returned here and fails the engine.
func (e *Engine) Ingest(rel string, ts Time, vals ...Value) error {
	if err := e.eng.Ingest(rel, ts, vals...); err != nil {
		return err
	}
	if e.cfg.EpochLength > 0 {
		if err := e.ctl.Tick(); err != nil {
			return err
		}
	}
	if e.mgr != nil {
		return e.mgr.MaybeCheckpoint()
	}
	return nil
}

// OnResult registers a result callback for a query. Callbacks run on
// worker goroutines and must be fast and thread-safe. The *Tuple is
// valid until the callback returns (it is recycled): keep tp.Clone().
func (e *Engine) OnResult(queryName string, fn func(*Tuple)) { e.eng.OnResult(queryName, fn) }

// AddQuery registers a new continuous query at runtime and returns
// once it is registered. The new configuration is solved beside the
// stream and installed at the next epoch boundary, before the first
// tuple of that epoch is routed; existing store state is reused so
// results appear without a cold start (Sec. VI-B). A duplicate name is
// reported here, and so is a query the configuration would answer
// lossily (see Config.Synchronous); a solve that fails fails the
// engine, and the Ingest that reaches its epoch (or Failure, after
// Drain) reports it.
func (e *Engine) AddQuery(q *Query) error {
	if err := e.cfg.exactFor(q); err != nil {
		return err
	}
	return e.ctl.AddQuery(q)
}

// RemoveQuery deregisters a query and returns once it is deregistered.
// The next configuration is solved beside the stream like AddQuery's; a
// store that served only this query is retired — its state released,
// its tasks and routing pin gone — by the first install after which no
// installed configuration names it (a configuration the new one shadows
// stays installed until the stream is two epochs past it). A query
// added later that uses the store again starts it empty. An unknown
// name is reported here.
func (e *Engine) RemoveQuery(name string) error { return e.ctl.RemoveQuery(name) }

// Plan returns the most recently installed plan: a configuration still
// being solved, or waiting for its epoch, is not reflected. Drain first
// to read the plan that answers every AddQuery and RemoveQuery so far.
func (e *Engine) Plan() *Plan { return e.ctl.Plan() }

// Estimates returns the current blended data-characteristic estimates.
func (e *Engine) Estimates() *Estimates { return e.ctl.Estimates() }

// Reoptimizations returns how many configurations have been installed,
// counted at install like Plan.
func (e *Engine) Reoptimizations() int { return e.ctl.Reoptimizations() }

// Metrics returns a snapshot of the runtime counters.
func (e *Engine) Metrics() MetricsSnapshot { return e.eng.Metrics().Snapshot() }

// Snapshot is Metrics under the name the cluster layer's Shard
// interface expects — an Engine drops into a Cluster as one shard.
func (e *Engine) Snapshot() MetricsSnapshot { return e.Metrics() }

// Pressure returns the engine's aggregated overload signal: queued
// work, the deepest task backlog, the flow substrate's credit balance,
// and shed counts.
func (e *Engine) Pressure() Pressure { return e.eng.Pressure() }

// TaskGauges returns a per-task pressure reading (queue depth, stored
// tuples, cumulative load and, with MeasuredCosts, the task meters),
// sorted by store and partition.
func (e *Engine) TaskGauges() []TaskGauge { return e.eng.TaskGauges() }

// ResetLatency clears latency aggregates (per-interval reporting).
func (e *Engine) ResetLatency() { e.eng.Metrics().ResetLatency() }

// Drain blocks until every configuration still being solved is
// installed and all in-flight tuples are processed. On the simulation
// substrate this runs the seeded scheduler to quiescence.
func (e *Engine) Drain() { e.eng.Drain() }

// VirtualClock returns the engine's virtual clock on the simulation
// substrate (nil elsewhere). Advance it to fast-forward simulated time
// — window-expiry and latency behaviour then plays out in microseconds
// of wall time.
func (e *Engine) VirtualClock() *VirtualClock { return e.eng.VirtualClock() }

// Failure reports a terminal engine error (e.g. the memory limit).
func (e *Engine) Failure() error { return e.eng.Failure() }

// Topology returns the configuration active at the given epoch.
func (e *Engine) Topology(epoch int64) *Topology { return e.eng.ConfigFor(epoch) }

// Checkpoint writes a snapshot of the engine's materialized store state
// (every store's windowed history) to w. Call it from the ingesting
// goroutine, or after Drain with no concurrent Ingest. A process
// restarted from the snapshot resumes with its history intact instead
// of waiting a full window for complete answers (Sec. VI-B, Fig. 6).
func (e *Engine) Checkpoint(w io.Writer) error { return e.eng.Checkpoint(w) }

// Restore loads a snapshot produced by Checkpoint into this engine.
// The engine must have been started with the same workload and
// optimizer options, so the compiled topology contains the
// checkpointed stores with the same parallelism; the snapshot's pinned
// routing (split hot keys) replaces the engine's own. A snapshot that
// fails to load leaves the engine untouched. Restore before the first
// Ingest; adaptive engines should restore before the first epoch
// boundary.
func (e *Engine) Restore(r io.Reader) error { return e.eng.Restore(r) }

// OnCommit registers an output-commit hook for exactly-once sinks.
// Every checkpoint marks it at its cut — Mark runs on the ingesting
// goroutine, after every result of the inputs the checkpoint covers was
// delivered — and releases it once the checkpoint is durable — Release
// runs on the goroutine that committed it, beside the stream on the
// flow substrate. Buffer results as they arrive, remember at Mark how
// many are pending, release exactly those at Release, and a crash can
// neither lose an acknowledged result nor acknowledge one twice (replay
// regenerates exactly the unreleased suffix). No-op without Config.WAL.
func (e *Engine) OnCommit(c Committer) {
	if e.mgr != nil {
		e.mgr.OnCommit(c)
	}
}

// CommitCheckpoint forces an incremental checkpoint now, regardless of
// cadence — e.g. before a planned shutdown — and returns once it is
// durable and its hooks released. No-op without Config.WAL.
func (e *Engine) CommitCheckpoint() error {
	if e.mgr == nil {
		return nil
	}
	return e.mgr.Checkpoint()
}

// WALStats reports the durability layer's counters (zero value without
// Config.WAL): bytes logged, bytes checkpointed, checkpoints taken. It
// waits for a checkpoint being committed beside the stream.
func (e *Engine) WALStats() WALStats {
	if e.mgr == nil {
		return WALStats{}
	}
	return e.mgr.Stats()
}

// Stop drains and terminates the engine. A durable engine should
// prefer Close, which also flushes a final checkpoint and releases the
// WAL directory; Stop leaves the tail to be replayed by Recover. It
// waits for a checkpoint being committed beside the stream, so nothing
// writes the WAL directory once it returns.
func (e *Engine) Stop() {
	if e.mgr != nil {
		e.mgr.Wait()
	}
	e.eng.Stop()
}

// Close flushes a final incremental checkpoint (when WAL durability is
// on), stops the engine, and releases the engine-owned WAL storage.
// Idempotent and safe to call after Stop.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		if e.mgr != nil {
			e.closeErr = e.mgr.Close()
		}
		e.eng.Stop()
		if e.ownedStore != nil {
			if err := e.ownedStore.Close(); err != nil && e.closeErr == nil {
				e.closeErr = err
			}
		}
	})
	return e.closeErr
}
