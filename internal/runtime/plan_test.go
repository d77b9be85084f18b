package runtime

// Tests for the compiled probe-plan layer: allocation regression guards
// on the hot path. Its exactness is TestExactnessMatrix's.

import (
	"math"
	stdruntime "runtime"
	"strings"
	"testing"

	"clash/internal/broker"
	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/topology"
	"clash/internal/tpch"
	"clash/internal/tuple"
)

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

// probeFixture builds a synchronous join engine on the given state
// backend, preloads the S store with `matches` partners under key 7, and
// returns the S store's task, the compiled plan R tuples probe it
// through, and an R probe message aimed at it. The join is R(a) S(a),
// whose probe plan delivers to the sink (sink-only), or, with forward,
// R(a) S(a,b) T(b) without MIRs, whose R⋈S results probe T.
func probeFixture(t testing.TB, forward bool, matches int, cfg Config) (*task, *rulePlan, *planState, *tuple.Tuple, *message) {
	workload, opts := "q1: R(a) S(a)", core.Options{StoreParallelism: 1, DisablePartitioning: true}
	if forward {
		workload, opts.DisableMIRs = "q1: R(a) S(a,b) T(b)", true
	}
	qs, cat, err := query.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	est := flatEstimates(cat.Names(), 100)
	plan, err := core.NewOptimizer(opts).Optimize(qs, est)
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
	for i := 0; i < matches; i++ {
		vals := []tuple.Value{tuple.IntValue(7)}
		if forward {
			vals = append(vals, tuple.IntValue(int64(i)))
		}
		if err := eng.Ingest("S", tuple.Time(i+1), vals...); err != nil {
			t.Fatal(err)
		}
	}
	tk, rp, edge := probePlan(t, eng, !forward)
	probe := tuple.New(eng.schemas["R"], 1000, tuple.IntValue(7), tuple.IntValue(1000))
	msg := &message{edge: edge, epoch: 0, batch: []*tuple.Tuple{probe}, seq: 1 << 30}
	return tk, rp, tk.stateFor(rp), probe, msg
}

// probePlan locates, in an engine whose S store holds state, the task
// of a store holding state and the plan R tuples probe it through —
// sink-only or forwarding, as asked — with the edge they reach it on.
func probePlan(t testing.TB, eng *Engine, sinkOnly bool) (*task, *rulePlan, topology.EdgeID) {
	ec := eng.configFor(0)
	for sid, byEdge := range ec.comp.rules {
		for edge, plans := range byEdge {
			for _, rp := range plans {
				if rp.kind != topology.ProbeRule || rp.sinkOnly != sinkOnly || !strings.HasPrefix(rp.probeAttrs[0], "R.") {
					continue
				}
				tk := eng.taskAt(sid, 0)
				if tk == nil || tk.storedCount.Load() == 0 {
					continue
				}
				return tk, rp, edge
			}
		}
	}
	t.Fatalf("no probe plan for R tuples (sink-only %v) found", sinkOnly)
	return nil, nil, ""
}

// allocsPerRun is testing.AllocsPerRun with the bytes beside the
// objects, neither rounded: what f allocates per run, averaged over runs
// after one warm-up run, read off runtime.MemStats. MemStats counts every
// goroutine's allocations, so it keeps the least of three trials: on a
// busy host another goroutine may allocate during one of them, while an
// allocation f makes shows in every trial.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(1))
	f()
	objects, bytes = math.Inf(1), math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		stdruntime.ReadMemStats(&after)
		objects = min(objects, float64(after.Mallocs-before.Mallocs)/float64(runs))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return objects, bytes
}

// TestProbeAllocs pins the allocation budget of the compiled probe
// path. A sink-only plan joining and delivering 8 results allocates
// nothing once warm: its results come from the probe batch's arena,
// rewound when the batch returns (a tuple per result cost 2+
// allocations before it). A plan that forwards its 8 results to the next hop
// carves them from the task's arena and copies the batch into the
// outgoing message: ≤ 1 object per probe as AllocsPerRun rounds it.
func TestProbeAllocs(t *testing.T) {
	tk, rp, st, _, msg := probeFixture(t, false, 8, Config{})
	tk.probeBatched(msg, rp, st) // warm the caches and the batch's arena
	if objs, bytes := allocsPerRun(200, func() { tk.probeBatched(msg, rp, st) }); objs != 0 || bytes != 0 {
		t.Errorf("sink-only probeBatched allocates %.2f objects, %.1f B per run, want 0 (8 results delivered)", objs, bytes)
	}

	tk, rp, st, _, msg = probeFixture(t, true, 8, Config{})
	forward := func() {
		tk.probeBatched(msg, rp, st)
		tk.e.Drain() // the forwarded batch probes the empty T store
	}
	forward()
	if avg := testing.AllocsPerRun(200, forward); avg > 1.0 {
		t.Errorf("forwarding probeBatched allocates %.2f objects/run, want ≤ 1 (8 results forwarded)", avg)
	}
}

// TestBatchProbeAllocs pins the batched probe path under a multi-tuple
// probe message: 16 probes scanned in one backend pass, 128 results
// delivered, allocate nothing once warm on every backend — batching adds
// no per-probe allocation, and every result is carved from the blocks
// the batch's arena keeps. The tiered row runs with every slot hot (one
// epoch, nothing to demote): the tier's end-of-dispatch maintenance must
// not allocate either.
func TestBatchProbeAllocs(t *testing.T) {
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			tk, rp, st, probe, msg := probeFixture(t, false, 8, row.apply(Config{}))
			const nProbes = 16
			batch := make([]*tuple.Tuple, nProbes)
			for i := range batch {
				batch[i] = probe
			}
			bmsg := &message{edge: msg.edge, epoch: msg.epoch, batch: batch, seq: msg.seq}
			tk.probeBatched(bmsg, rp, st) // warm caches and scratch buffers
			objs, bytes := allocsPerRun(200, func() { tk.probeBatched(bmsg, rp, st) })
			if objs != 0 || bytes != 0 {
				t.Errorf("batched probe allocates %.2f objects, %.1f B per %d-probe batch, want 0", objs, bytes, nProbes)
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

// TestSinkResultsRecycled is the vacuity check of the result lifetime
// contract and its poison: a sink-only plan's results are recycled when
// their batch returns, so a callback that keeps the pointers reads
// poison after the next batch, while one that keeps Clones reads what it
// was passed. Every backend carves through the same probeBatch.result.
func TestSinkResultsRecycled(t *testing.T) {
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			tk, rp, st, probe, msg := probeFixture(t, false, 8, row.apply(Config{}))
			tk.probeBatched(msg, rp, st) // warm the caches and the batch's arena
			var kept, clones []*tuple.Tuple
			var seen []string
			tk.e.OnResult("q1", func(tp *tuple.Tuple) {
				kept = append(kept, tp)
				clones = append(clones, tp.Clone())
				seen = append(seen, tp.String())
			})
			tk.probeBatched(msg, rp, st)
			tk.e.OnResult("q1", func(*tuple.Tuple) {})
			miss := tuple.New(probe.Schema, probe.TS+1, tuple.IntValue(8), tuple.IntValue(int64(probe.TS+1)))
			tk.probeBatched(&message{edge: msg.edge, batch: []*tuple.Tuple{miss}, seq: msg.seq}, rp, st)
			if len(kept) != 8 {
				t.Fatalf("%d results kept, want 8", len(kept))
			}
			for i, tp := range kept {
				if got := clones[i].String(); got != seen[i] {
					t.Errorf("result %d: the clone reads %s, the callback saw %s", i, got, seen[i])
				}
				if v := tp.Values[0]; tp.Schema.Len() != 0 || v.Kind() != tuple.String || v.Str() != "\x00recycled" {
					t.Errorf("result %d kept without Clone reads %s (first value %v), not poison", i, tp, v)
				}
			}
		})
	}
}

// TestSinkFeedbackReadsOwnResult: a synchronous sink that feeds each
// result back re-enters the same task's probe while the outer batch is
// still delivering; after the nested Ingest returns, the callback's own
// tuple must still read what it did before — the nested batch carves
// from its own arena — and every result must match the reference, with
// recycled tuples poisoned (TestMain). Fed tuples are marked R.b = 1 and
// feed nothing back.
func TestSinkFeedbackReadsOwnResult(t *testing.T) {
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			h := newHarness(t, "q1: R(a,b) S(a)",
				core.Options{StoreParallelism: 1, DisablePartitioning: true},
				flatEstimates([]string{"R", "S"}, 100), row.apply(Config{Substrate: SubstrateSynchronous}))
			defer h.eng.Stop()
			var ins []Ingestion
			ingest := func(in Ingestion) {
				ins = append(ins, in)
				if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
					t.Fatal(err)
				}
			}
			feedTS, nested := tuple.Time(10_000), 0
			h.eng.OnResult("q1", func(tp *tuple.Tuple) {
				before := tp.String()
				if tp.MustGet("R.b").Int() == 0 {
					feedTS++
					ingest(Ingestion{Rel: "R", TS: feedTS, Vals: []tuple.Value{tp.MustGet("R.a"), tuple.IntValue(1)}})
					nested++
				}
				if after := tp.String(); after != before {
					t.Fatalf("a nested ingest rewrote the outer result: %s became %s", before, after)
				}
				h.sinks["q1"].Add(tp)
			})
			for i := 0; i < 60; i++ {
				k := tuple.IntValue(int64(i % 4))
				if i%3 == 0 {
					ingest(Ingestion{Rel: "R", TS: tuple.Time(i + 1), Vals: []tuple.Value{k, tuple.IntValue(0)}})
				} else {
					ingest(Ingestion{Rel: "S", TS: tuple.Time(i + 1), Vals: []tuple.Value{k}})
				}
			}
			h.eng.Drain()
			h.checkAgainstOracle(t, ins)
			if nested == 0 {
				t.Fatal("no result was fed back — test vacuous")
			}
			t.Logf("%d results, %d fed back", h.sinks["q1"].Count(), nested)
		})
	}
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
