package runtime

// Tests for the compiled probe-plan layer: differential equivalence
// against the legacy string-resolved probe path, and allocation
// regression guards on the hot path.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"clash/internal/broker"
	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/topology"
	"clash/internal/tpch"
	"clash/internal/tuple"
)

// runWorkload executes the topology over the records and returns, per
// query, the sorted rendered results. Sinks collect under a mutex: on
// the asynchronous substrates callbacks run on task goroutines.
func runWorkload(t *testing.T, cfg Config, topo *topology.Config, queries []*query.Query, records []broker.Record) map[string][]string {
	t.Helper()
	eng := New(cfg)
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	var mu sync.Mutex
	out := map[string][]string{}
	for _, q := range queries {
		name := q.Name
		eng.OnResult(name, func(tp *tuple.Tuple) {
			mu.Lock()
			out[name] = append(out[name], tp.String())
			mu.Unlock()
		})
	}
	for _, r := range records {
		if err := eng.Ingest(r.Relation, r.TS, r.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	for _, rs := range out {
		sort.Strings(rs)
	}
	return out
}

// tpchFixture is the Fig. 7 setting in small (tpch.NewFixture): the
// TPC-H stream the queries read at the given scale factor, and their
// jointly optimized shared plan, solved on a counted budget from the
// stream's own statistics and compiled at parallelism 2 — so the plan,
// and every count a test derives from it, repeats on any machine.
func tpchFixture(t *testing.T, queries []*query.Query, sf float64) (*query.Catalog, *topology.Config, []broker.Record) {
	t.Helper()
	fx, err := tpch.NewFixture(queries, sf, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := fx.SharedTopology()
	if err != nil {
		t.Fatal(err)
	}
	return fx.Catalog, topo, fx.Records
}

// TestCompiledPlanEquivalenceTPCH asserts the compiled probe path
// produces byte-identical join results to the legacy string-resolved
// path — an index-free scan of every stored tuple (task.probeLegacy) —
// on the TPC-H multi-query workload (the Fig. 7 setting) — and
// that the result bytes are identical on every execution substrate
// (synchronous, flow-controlled, simulated) and on
// both state backends (container, columnar): same topology, same
// records, engines differing only in probe implementation, in
// scheduling/flow-control layer, or in store layout (DESIGN.md §3,
// §8, §10).
func TestCompiledPlanEquivalenceTPCH(t *testing.T) {
	queries := tpch.Fig7Queries()
	cat, topo, records := tpchFixture(t, queries, 0.0005)

	legacy := runWorkload(t, Config{Catalog: cat, Substrate: SubstrateSynchronous, legacyProbe: true}, topo, queries, records)
	substrates := map[string]Config{
		"synchronous": {Catalog: cat, Substrate: SubstrateSynchronous},
		"flow":        {Catalog: cat, Substrate: SubstrateFlow, StepMode: true, Flow: FlowConfig{MailboxCredits: 64}},
		"sim":         {Catalog: cat, Substrate: SubstrateSim, StepMode: true, Sim: SimConfig{Seed: 7}},
	}
	for subName, base := range substrates {
		for _, row := range backendKinds() {
			name := fmt.Sprintf("compiled-%s-%s", subName, row)
			cfg := row.apply(base)
			if row.hot > 0 {
				// The tight hot budget makes most probes read through
				// to cold epochs — the point of the arm, but an order
				// of magnitude slower under the race detector, so the
				// -short race run trims it (tiering is single-task
				// work; its concurrency surface is covered by the
				// spill-tier Stop/Close and checkpoint tests).
				if testing.Short() {
					continue
				}
				cfg.EpochLength = 48
			}
			compiled := runWorkload(t, cfg, topo, queries, records)
			for _, q := range queries {
				c, l := compiled[q.Name], legacy[q.Name]
				if len(c) != len(l) {
					t.Fatalf("%s/%s: compiled %d results, legacy %d", name, q.Name, len(c), len(l))
				}
				for i := range c {
					if c[i] != l[i] {
						t.Fatalf("%s/%s: result %d differs:\ncompiled: %s\nlegacy:   %s", name, q.Name, i, c[i], l[i])
					}
				}
				if len(c) == 0 {
					t.Errorf("%s/%s: zero results — equivalence vacuous", name, q.Name)
				}
			}
		}
	}
}

// TestCompiledPlanEquivalenceWindowed covers the windowed, partitioned,
// multi-query case (shared S–T step, per-relation τ window checks).
func TestCompiledPlanEquivalenceWindowed(t *testing.T) {
	workload := "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)"
	qs, cat, err := query.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	est := flatEstimates([]string{"R", "S", "T", "U"}, 100)
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 3}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	ins := randomStream(cat, 400, 5, 13)
	records := make([]broker.Record, len(ins))
	for i, in := range ins {
		records[i] = broker.Record{Relation: in.Rel, TS: in.TS, Vals: in.Vals}
	}
	cfg := Config{Catalog: cat, Substrate: SubstrateSynchronous, DefaultWindow: 40}
	compiled := runWorkload(t, cfg, topo, qs, records)
	cfg.legacyProbe = true
	legacy := runWorkload(t, cfg, topo, qs, records)
	for _, q := range qs {
		if fmt.Sprint(compiled[q.Name]) != fmt.Sprint(legacy[q.Name]) {
			t.Errorf("%s: compiled and legacy paths diverge (%d vs %d results)",
				q.Name, len(compiled[q.Name]), len(legacy[q.Name]))
		}
		if len(compiled[q.Name]) == 0 {
			t.Errorf("%s: zero results — equivalence vacuous", q.Name)
		}
	}
}

// probeFixture builds a synchronous two-way join engine on the given
// state backend, preloads the probed store, and returns the task,
// compiled probe plan, and a probe message aimed at it.
func probeFixture(t testing.TB, matches int, cfg Config) (*task, *rulePlan, *planState, *tuple.Tuple, *message) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	est := flatEstimates([]string{"R", "S"}, 100)
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 1, DisablePartitioning: true}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Catalog, cfg.Substrate = cat, SubstrateSynchronous
	eng := New(cfg)
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	eng.OnResult("q1", func(*tuple.Tuple) {})
	t.Cleanup(eng.Stop)
	// Preload the S store: `matches` partners under key 7.
	for i := 0; i < matches; i++ {
		if err := eng.Ingest("S", tuple.Time(i+1), tuple.IntValue(7)); err != nil {
			t.Fatal(err)
		}
	}
	tk, rp, edge := sinkProbePlan(t, eng)
	probe := tuple.New(eng.schemas["R"], 1000, tuple.IntValue(7), tuple.IntValue(1000))
	msg := &message{edge: edge, epoch: 0, batch: []*tuple.Tuple{probe}, seq: 1 << 30}
	return tk, rp, tk.stateFor(rp), probe, msg
}

// sinkProbePlan locates, in a two-way join engine whose S store holds
// state, the S store's task and its probe plan (sink-only output), with
// the edge probes reach it on.
func sinkProbePlan(t testing.TB, eng *Engine) (*task, *rulePlan, topology.EdgeID) {
	ec := eng.configFor(0)
	for sid, byEdge := range ec.comp.rules {
		for edge, plans := range byEdge {
			for _, rp := range plans {
				if rp.kind != topology.ProbeRule || len(rp.out) != 1 || rp.out[0].sink == "" {
					continue
				}
				tk := eng.tasks[taskKey{store: sid, part: 0}]
				if tk == nil || tk.storedCount.Load() == 0 {
					continue
				}
				return tk, rp, edge
			}
		}
	}
	t.Fatal("no sink-feeding probe plan found")
	return nil, nil, ""
}

// TestProbeAllocs pins the allocation budget of the compiled probe
// path: joining and forwarding 8 results must cost amortized ≤1 alloc
// per probe (arena chunks and batch copies amortize across calls; the
// legacy path cost 2+ allocations per result).
func TestProbeAllocs(t *testing.T) {
	tk, rp, st, _, msg := probeFixture(t, 8, Config{})
	// Warm the schema-position and index caches.
	tk.probeBatched(msg, rp, st)
	avg := testing.AllocsPerRun(200, func() {
		tk.probeBatched(msg, rp, st)
	})
	if avg > 1.0 {
		t.Errorf("probeBatched allocates %.2f objects/run, want ≤ 1 (8 results forwarded)", avg)
	}
}

// TestBatchProbeAllocs pins the batched probe path under a multi-tuple
// probe message: 16 probes scanned in one backend pass must stay at
// amortized ≤1 allocation per probe on every backend — the whole point
// of the selection-vector design is that batching adds no per-probe
// allocation on top of the scalar budget. The tiered row runs with
// every slot hot (one epoch, nothing to demote): the tier's end-of-
// dispatch maintenance must not allocate either.
func TestBatchProbeAllocs(t *testing.T) {
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			tk, rp, st, probe, msg := probeFixture(t, 8, row.apply(Config{}))
			const nProbes = 16
			batch := make([]*tuple.Tuple, nProbes)
			for i := range batch {
				batch[i] = probe
			}
			bmsg := &message{edge: msg.edge, epoch: msg.epoch, batch: batch, seq: msg.seq}
			tk.probeBatched(bmsg, rp, st) // warm caches and scratch buffers
			avg := testing.AllocsPerRun(200, func() {
				tk.probeBatched(bmsg, rp, st)
			})
			if avg > nProbes {
				t.Errorf("batched probe allocates %.2f objects per %d-probe batch, want ≤ %d (amortized ≤1/probe)",
					avg, nProbes, nProbes)
			}
		})
	}
}

// TestIngestAllocs pins the allocation budget of Engine.Ingest on the
// routing path: the tuple itself and its value slice, plus amortized
// container and index growth (the seed path cost 8). The half object of
// headroom is deliberate: a dispatched message that escapes to the heap
// — anything on the task path retaining *message, e.g. a closure handed
// to the backend — costs exactly one more per tuple and must fail here.
func TestIngestAllocs(t *testing.T) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	est := flatEstimates([]string{"R", "S"}, 100)
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 4}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Catalog: cat, Substrate: SubstrateSynchronous})
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	eng.OnResult("q1", func(*tuple.Tuple) {})
	defer eng.Stop()
	ts := int64(1)
	avg := testing.AllocsPerRun(500, func() {
		if err := eng.Ingest("R", tuple.Time(ts), tuple.IntValue(ts)); err != nil {
			t.Fatal(err)
		}
		ts++
	})
	if avg > 2.5 {
		t.Errorf("Engine.Ingest allocates %.2f objects/run, want ≤ 2.5", avg)
	}
}

// TestSyncReentrantIngest covers the feedback pattern: a sink callback
// on a Synchronous engine ingesting a derived tuple (and calling Drain
// itself). Nested drains share the outer cursor — every queued message
// is processed exactly once and inflight returns to 0.
func TestSyncReentrantIngest(t *testing.T) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)\nq2: F(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	est := flatEstimates([]string{"R", "S", "F"}, 100)
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 2}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Catalog: cat, Substrate: SubstrateSynchronous})
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	var q1, q2 int
	feedTS := tuple.Time(1000)
	eng.OnResult("q1", func(tp *tuple.Tuple) {
		q1++
		// Feed every q1 result back as an F tuple with the same key.
		v := tp.MustGet("R.a")
		feedTS++
		if err := eng.Ingest("F", feedTS, v); err != nil {
			t.Errorf("re-entrant ingest: %v", err)
		}
		// Nested Drain must complete the queued feedback work, not
		// silently no-op (Drain's contract holds under re-entry).
		eng.Drain()
	})
	eng.OnResult("q2", func(*tuple.Tuple) { q2++ })
	for i := 0; i < 20; i++ {
		k := tuple.IntValue(int64(i % 4))
		if err := eng.Ingest("S", tuple.Time(2*i+1), k); err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest("R", tuple.Time(2*i+2), k); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	if got := eng.inflight.Load(); got != 0 {
		t.Errorf("inflight = %d after drain, want 0", got)
	}
	if q1 == 0 {
		t.Fatal("no q1 results — test vacuous")
	}
	// Every q1 result fed one F tuple, and each F tuple arrives after
	// all S partners with its key, so q2 must see F-count × partners.
	if q2 == 0 {
		t.Errorf("feedback results lost: q1=%d fed tuples produced q2=%d", q1, q2)
	}
	t.Logf("q1=%d q2=%d", q1, q2)
}

// TestPruneKeepsIndicesConsistent verifies incremental index
// maintenance: after prunes interleaved with inserts, indexed probes
// see exactly the surviving partners.
func TestPruneKeepsIndicesConsistent(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100),
		Config{DefaultWindow: 25})
	ins := randomStream(h.cat, 400, 6, 77)
	for i, in := range ins {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			h.eng.PruneBefore(h.eng.Watermark() - 25)
			h.eng.Drain()
		}
	}
	h.eng.Drain()
	h.checkAgainstOracle(t, ins)
	if h.sinks["q1"].Count() == 0 {
		t.Fatal("no results — vacuous")
	}
	h.eng.Stop()
}
