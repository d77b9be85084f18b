package sim

import (
	"fmt"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// StreamConfig describes the generated input stream. The stream is a
// pure function of (catalog, Tuples, Keys, Seed) — the same splitmix64
// generator the rest of the repository uses.
type StreamConfig struct {
	// Tuples is the stream length (default 400).
	Tuples int
	// Keys is the per-attribute key domain size (default 6).
	Keys int64
	// Seed drives the stream generator — independent of the schedule
	// seed, so data and interleaving vary separately.
	Seed uint64
}

// Scenario is one fully described simulated run: workload, stream,
// schedule seed, flow-control model, and faults. Everything a run does
// is a deterministic function of this struct, which is what makes
// Replay and seed sweeps meaningful.
type Scenario struct {
	// Workload holds one query per line in the paper's notation.
	Workload string
	// Options configure the optimizer (zero value: StoreParallelism 3).
	Options core.Options
	// Estimates seed the optimizer (nil: flat rate 100).
	Estimates *stats.Estimates
	// Window is the default per-relation window (0 = unbounded).
	Window time.Duration
	// Stream configures the generated input.
	Stream StreamConfig
	// Seed drives the schedule (SimConfig.Seed).
	Seed uint64
	// Credits enables the flow-control model (0 = unbounded queueing).
	Credits int
	// Policy selects the overload behaviour under Credits > 0.
	Policy runtime.OverloadPolicy
	// StepMode drains between source tuples: exact symmetric-join
	// semantics (required for VerifyExact on multi-hop plans).
	StepMode bool
	// Backend selects the state backend serving the simulated run
	// (container or columnar). The verification oracles always run on
	// the default container backend, so a columnar scenario is also a
	// cross-backend equivalence check. Sweeps pick Backend and
	// StateHotBytes together, as a row of StateConfigs (UseState).
	Backend runtime.StateBackendKind
	// StateHotBytes enables the columnar backend's spill tier and bounds
	// resident state (see runtime.Config.StateHotBytes): above it, cold
	// whole epochs spill to disk. The tiered row of StateConfigs sets it
	// low enough to force demotions, so equivalence covers demotion and
	// the probes' read-throughs, not a store idling all-hot.
	// Ignored on the container backend.
	StateHotBytes int64
	// EpochLength enables epoch granularity for demotion/eviction (0 =
	// one epoch; tier moves need several).
	EpochLength time.Duration
	// Faults are applied in order; CreditStarvation overrides Credits.
	Faults []Fault
}

// StateConfig is one row of the state-configuration matrix every
// cross-backend sweep iterates: a backend and, on the tiered row, the
// hot budget that forces its spill tier to work.
type StateConfig struct {
	// Name labels the row in test output.
	Name    string
	Backend runtime.StateBackendKind
	// HotBytes is the forcing StateHotBytes: small enough that every
	// sweep scenario demotes epochs and reads them back. 0 = no tier.
	HotBytes int64
}

// StateConfigs returns the matrix, the container oracle first. It is
// defined here once; internal/runtime's own tests keep a copy of the
// three rows because this package imports that one.
func StateConfigs() []StateConfig {
	return []StateConfig{
		{Name: "container", Backend: runtime.BackendContainer},
		{Name: "columnar", Backend: runtime.BackendColumnar},
		{Name: "tiered", Backend: runtime.BackendColumnar, HotBytes: 4 << 10},
	}
}

// UseState selects a row of the state matrix. On the tiered row it also
// gives the run what a hot budget needs to bite — the forcing budget and
// an epoch granularity with something to demote — unless the scenario
// already chose its own.
func (sc *Scenario) UseState(row StateConfig) {
	sc.Backend = row.Backend
	if row.HotBytes == 0 {
		return
	}
	if sc.StateHotBytes == 0 {
		sc.StateHotBytes = row.HotBytes
	}
	if sc.EpochLength == 0 {
		sc.EpochLength = 8
	}
}

// Result is the outcome of one simulated run.
type Result struct {
	// Results holds, per query, the canonical result multiset.
	Results map[string]map[string]int
	// Trace is the recorded schedule.
	Trace *Trace
	// Metrics is the engine's final counter snapshot.
	Metrics runtime.Snapshot
	// Delivered is the stream in delivery order (after source faults) —
	// the input the oracle must be evaluated against.
	Delivered []runtime.Ingestion

	queries []*query.Query
	cat     *query.Catalog
	window  time.Duration
}

// build compiles the scenario's topology — a deterministic function of
// the scenario, so every run (and the synchronous verification run)
// executes the identical plan.
func (sc *Scenario) build() ([]*query.Query, *query.Catalog, *topology.Config, error) {
	qs, cat, err := query.ParseWorkload(sc.Workload)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := sc.Options
	if opts.StoreParallelism == 0 {
		opts.StoreParallelism = 3
	}
	est := sc.Estimates
	if est == nil {
		est = stats.NewEstimates(0.1)
		for _, r := range cat.Names() {
			est.SetRate(r, 100)
		}
	}
	plan, err := core.NewOptimizer(opts).Optimize(qs, est)
	if err != nil {
		return nil, nil, nil, err
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: opts.StoreParallelism})
	if err != nil {
		return nil, nil, nil, err
	}
	return qs, cat, topo, nil
}

// effectiveCredits resolves the flow-control grant after fault
// overrides (CreditStarvation wins over Scenario.Credits).
func (sc *Scenario) effectiveCredits() int {
	credits := sc.Credits
	for _, f := range sc.Faults {
		if cs, ok := f.(CreditStarvation); ok {
			credits = cs.grant()
		}
	}
	return credits
}

// engineConfig assembles the simulated engine's configuration: seeded
// scheduler, flow-control model, fault hooks (stall vetoes and panic
// injection) and supervision — shared by Run and the crash-recovery
// harness so both execute under the exact same substrate. The harness
// attaches its write-ahead journal with SetJournal.
func (sc *Scenario) engineConfig(cat *query.Catalog, credits int, trace *Trace) runtime.Config {
	faults := sc.Faults
	stall := func(ev runtime.SimEvent) bool {
		for _, f := range faults {
			if f.Stall(ev) {
				return true
			}
		}
		return false
	}
	panicAt := func(ev runtime.SimEvent) bool {
		for _, f := range faults {
			if f.Panic(ev) {
				return true
			}
		}
		return false
	}
	var onEvent func(runtime.SimEvent)
	if trace != nil {
		onEvent = trace.Hook()
	}
	return runtime.Config{
		Catalog:       cat,
		DefaultWindow: sc.Window,
		EpochLength:   sc.EpochLength,
		StepMode:      sc.StepMode,
		StateBackend:  sc.Backend,
		StateHotBytes: sc.StateHotBytes,
		Substrate:     runtime.SubstrateSim,
		Sim: runtime.SimConfig{
			Seed:           sc.Seed,
			MailboxCredits: credits,
			Policy:         sc.Policy,
			OnEvent:        onEvent,
			Stall:          stall,
			Panic:          panicAt,
		},
	}
}

// Run executes the scenario once and returns its full outcome.
func (sc *Scenario) Run() (*Result, error) {
	qs, cat, topo, err := sc.build()
	if err != nil {
		return nil, err
	}

	credits := sc.effectiveCredits()
	trace := &Trace{}
	eng := runtime.New(sc.engineConfig(cat, credits, trace))
	defer eng.Stop()
	if err := eng.Install(topo, 0); err != nil {
		return nil, err
	}
	res := &Result{
		Results: map[string]map[string]int{},
		Trace:   trace,
		queries: qs,
		cat:     cat,
		window:  sc.Window,
	}
	sinks := map[string]*runtime.CollectSink{}
	for _, q := range qs {
		s := runtime.NewCollectSink()
		sinks[q.Name] = s
		eng.OnResult(q.Name, s.Add)
	}

	ins := generateStream(cat, sc.Stream)
	for _, f := range sc.Faults {
		ins = f.Deliver(ins)
	}
	res.Delivered = ins
	for _, in := range ins {
		if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			return nil, fmt.Errorf("sim: ingest: %w", err)
		}
	}
	eng.Drain()
	for name, s := range sinks {
		res.Results[name] = s.Results()
	}
	res.Metrics = eng.Metrics().Snapshot()
	return res, nil
}

// Replay runs the scenario again and reports where (if anywhere) the
// schedule diverges from the given run. A healthy deterministic
// substrate never diverges: DivergesAt == -1.
func (sc *Scenario) Replay(prev *Result) (*Result, int, error) {
	next, err := sc.Run()
	if err != nil {
		return nil, 0, err
	}
	return next, prev.Trace.DivergesAt(next.Trace), nil
}

// VerifyExact compares the run's results against the nested-loop
// reference oracle over the delivered stream. Valid for lossless runs
// (no shedding) with timestamp-ordered delivery; scenarios with
// multi-hop feeding plans need StepMode. Faults that reorder delivery
// (SourceHiccup) break the engine's in-order precondition — verify
// those with Scenario.VerifySubstrateIndependent instead.
func (r *Result) VerifyExact() error {
	if r.Metrics.ShedTuples != 0 {
		return fmt.Errorf("sim: %d tuples shed — exactness does not apply to lossy runs", r.Metrics.ShedTuples)
	}
	for _, q := range r.queries {
		want := runtime.ReferenceJoin(q, r.cat, tuple.Duration(r.window), r.Delivered)
		got := r.Results[q.Name]
		for k, n := range want {
			if got[k] != n {
				return fmt.Errorf("sim: %s: result %q count %d, oracle %d", q.Name, k, got[k], n)
			}
		}
		for k := range got {
			if want[k] == 0 {
				return fmt.Errorf("sim: %s: spurious result %q", q.Name, k)
			}
		}
	}
	return nil
}

// VerifySubstrateIndependent replays the run's delivered stream on the
// exact synchronous substrate over the identical topology and compares
// result multisets byte for byte. This is the schedule-independence
// property — it holds for ANY delivery order, including the reordered
// streams fault injection produces, where oracle exactness (which
// presumes timestamp-ordered arrival) does not apply. Lossless runs
// only.
func (sc *Scenario) VerifySubstrateIndependent(r *Result) error {
	if r.Metrics.ShedTuples != 0 {
		return fmt.Errorf("sim: %d tuples shed — a lossy schedule has no synchronous reference", r.Metrics.ShedTuples)
	}
	qs, cat, topo, err := sc.build()
	if err != nil {
		return err
	}
	eng := runtime.New(runtime.Config{
		Catalog:       cat,
		DefaultWindow: sc.Window,
		Substrate:     runtime.SubstrateSynchronous,
	})
	defer eng.Stop()
	if err := eng.Install(topo, 0); err != nil {
		return err
	}
	sinks := map[string]*runtime.CollectSink{}
	for _, q := range qs {
		s := runtime.NewCollectSink()
		sinks[q.Name] = s
		eng.OnResult(q.Name, s.Add)
	}
	for _, in := range r.Delivered {
		if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			return fmt.Errorf("sim: synchronous reference ingest: %w", err)
		}
	}
	eng.Drain()
	for _, q := range qs {
		want := sinks[q.Name].Results()
		got := r.Results[q.Name]
		if len(got) != len(want) {
			return fmt.Errorf("sim: %s: %d distinct results, synchronous reference has %d", q.Name, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				return fmt.Errorf("sim: %s: result %q count %d, synchronous reference %d", q.Name, k, got[k], n)
			}
		}
	}
	return nil
}

// TotalResults sums the result multisets across queries.
func (r *Result) TotalResults() int {
	n := 0
	for _, m := range r.Results {
		for _, c := range m {
			n += c
		}
	}
	return n
}

// Sweep runs the scenario across seeds [1, n], verifying each seeded
// schedule against the oracle and each seed against its own replay. It
// returns the distinct schedule digests seen (diversity measure) and
// the first error encountered, identified by its seed — which is all
// that is needed to reproduce it.
func (sc *Scenario) Sweep(n int) (distinct int, err error) {
	digests := map[uint64]bool{}
	for seed := 1; seed <= n; seed++ {
		s := *sc
		s.Seed = uint64(seed)
		res, err := s.Run()
		if err != nil {
			return len(digests), fmt.Errorf("seed %d: %w", seed, err)
		}
		if err := res.VerifyExact(); err != nil {
			return len(digests), fmt.Errorf("seed %d: %w", seed, err)
		}
		if _, at, err := s.Replay(res); err != nil || at >= 0 {
			if err == nil {
				err = fmt.Errorf("schedule diverges from its replay at step %d", at)
			}
			return len(digests), fmt.Errorf("seed %d: %w", seed, err)
		}
		digests[res.Trace.Digest()] = true
	}
	return len(digests), nil
}

// generateStream builds the scenario's input stream (interleaved
// relations, increasing timestamps) from the stream seed.
func generateStream(cat *query.Catalog, cfg StreamConfig) []runtime.Ingestion {
	n := cfg.Tuples
	if n <= 0 {
		n = 400
	}
	keys := cfg.Keys
	if keys <= 0 {
		keys = 6
	}
	r := rng.New(cfg.Seed)
	rels := cat.Names()
	out := make([]runtime.Ingestion, 0, n)
	ts := tuple.Time(0)
	for i := 0; i < n; i++ {
		ts += tuple.Time(1 + r.Intn(3))
		rel := cat.Relation(rels[r.Intn(len(rels))])
		vals := make([]tuple.Value, len(rel.Attrs))
		for j := range vals {
			vals[j] = tuple.IntValue(r.Int64n(keys))
		}
		out = append(out, runtime.Ingestion{Rel: rel.Name, TS: ts, Vals: vals})
	}
	return out
}
