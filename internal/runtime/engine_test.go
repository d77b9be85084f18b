package runtime

import (
	"fmt"
	"math"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// harness bundles an engine with its queries for oracle comparison.
type harness struct {
	eng     *Engine
	cat     *query.Catalog
	queries []*query.Query
	sinks   map[string]*CollectSink
	defW    time.Duration
}

// newHarness optimizes the workload and installs the compiled topology
// on a StepMode engine (deterministic semantics).
func newHarness(t *testing.T, workload string, opts core.Options, est *stats.Estimates, engCfg Config) *harness {
	t.Helper()
	qs, cat, topo := compileWorkload(t, workload, opts, est)
	if engCfg.Substrate != SubstrateSynchronous {
		engCfg.StepMode = true
	}
	return installHarness(t, qs, cat, topo, engCfg)
}

// compileWorkload parses the workload, optimizes it under the estimates
// and compiles the plan with shared stores.
func compileWorkload(t *testing.T, workload string, opts core.Options, est *stats.Estimates) ([]*query.Query, *query.Catalog, *topology.Config) {
	t.Helper()
	qs, cat, err := query.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewOptimizer(opts).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	return qs, cat, topo
}

// installHarness installs the topology on an engine configured as
// engCfg says, over the queries' catalog, with a sink per query.
func installHarness(t *testing.T, qs []*query.Query, cat *query.Catalog, topo *topology.Config, engCfg Config) *harness {
	t.Helper()
	engCfg.Catalog = cat
	eng := New(engCfg)
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: eng, cat: cat, queries: qs, sinks: map[string]*CollectSink{}, defW: engCfg.DefaultWindow}
	for _, q := range qs {
		s := NewCollectSink()
		h.sinks[q.Name] = s
		eng.OnResult(q.Name, s.Add)
	}
	return h
}

func (h *harness) ingestAll(t *testing.T, ins []Ingestion) {
	t.Helper()
	for _, in := range ins {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatalf("ingest %v: %v", in, err)
		}
	}
	h.eng.Drain()
}

func (h *harness) checkAgainstOracle(t *testing.T, ins []Ingestion) {
	t.Helper()
	for _, q := range h.queries {
		missing, spurious, ex := resultDiff(ReferenceJoin(q, h.cat, h.defW, ins), h.sinks[q.Name].Results())
		if missing+spurious > 0 {
			t.Errorf("%s: %d results missing, %d spurious against the oracle: %v", q.Name, missing, spurious, ex)
		}
	}
}

// randomStream generates interleaved tuples with increasing timestamps.
func randomStream(cat *query.Catalog, n int, keys int64, seed uint64) []Ingestion {
	r := rng.New(seed)
	rels := cat.Names()
	var out []Ingestion
	ts := tuple.Time(0)
	for i := 0; i < n; i++ {
		ts += tuple.Time(1 + r.Intn(3))
		rel := cat.Relation(rels[r.Intn(len(rels))])
		vals := make([]tuple.Value, len(rel.Attrs))
		for j := range vals {
			vals[j] = tuple.IntValue(r.Int64n(keys))
		}
		out = append(out, Ingestion{Rel: rel.Name, TS: ts, Vals: vals})
	}
	return out
}

// mixedPalette is the join-value domain of the exactness fixtures:
// values equal under == only to themselves, which a store that keeps
// cells by column must keep apart — Null against Int 0, both Bools,
// −0.0 against +0.0, a NaN payload, empty and non-empty strings.
var mixedPalette = []tuple.Value{
	tuple.NullValue(), tuple.IntValue(0), tuple.IntValue(1),
	tuple.BoolValue(false), tuple.BoolValue(true),
	tuple.FloatValue(math.Copysign(0, -1)), tuple.FloatValue(0),
	tuple.FloatValue(math.Float64frombits(0x7ff8_0000_0000_0abc)),
	tuple.StringValue(""), tuple.StringValue("x"),
}

// mixedStream is randomStream drawing its values from mixedPalette,
// except in the first quarter of every epochLen of event time, which
// draws Int 0 and 1 only: each epoch's columns hold Ints before the
// first String, Float or Bool lands in them.
func mixedStream(cat *query.Catalog, n int, epochLen int64, seed uint64) []Ingestion {
	ins := randomStream(cat, n, int64(len(mixedPalette)), seed)
	for _, in := range ins {
		for j, v := range in.Vals {
			if int64(in.TS)%epochLen < epochLen/4 {
				in.Vals[j] = tuple.IntValue(v.Int() % 2)
			} else {
				in.Vals[j] = mixedPalette[v.Int()]
			}
		}
	}
	return ins
}

func flatEstimates(rels []string, rate float64) *stats.Estimates {
	e := stats.NewEstimates(0.1)
	for _, r := range rels {
		e.SetRate(r, rate)
	}
	return e
}

func TestPlanIndependenceProperty(t *testing.T) {
	// The same input stream must yield the same result multiset under
	// structurally different plans — the core correctness property of
	// probe-order optimization.
	workload := "q1: R(a) S(a,b) T(b)"
	variants := []core.Options{
		{StoreParallelism: 1, DisablePartitioning: true},
		{StoreParallelism: 1, DisablePartitioning: true, DisableMIRs: true},
		{StoreParallelism: 5},
		{StoreParallelism: 3, DisableMIRs: true},
	}
	var reference map[string]int
	for i, opts := range variants {
		est := flatEstimates([]string{"R", "S", "T"}, 100)
		if i%2 == 1 {
			// Perturb estimates so different plans get chosen.
			est.SetSelectivity(query.Predicate{
				Left:  query.Attr{Rel: "S", Name: "b"},
				Right: query.Attr{Rel: "T", Name: "b"},
			}, 0.9)
		}
		h := newHarness(t, workload, opts, est, Config{DefaultWindow: 50})
		ins := randomStream(h.cat, 200, 5, 99)
		h.ingestAll(t, ins)
		got := h.sinks["q1"].Results()
		if reference == nil {
			reference = got
		} else if fmt.Sprint(reference) != fmt.Sprint(got) {
			t.Errorf("variant %d produced different results: %d vs %d distinct",
				i, len(got), len(reference))
		}
		h.eng.Stop()
	}
}

func TestProbeCostCounted(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true},
		flatEstimates([]string{"R", "S"}, 100), Config{})
	ins := randomStream(h.cat, 100, 10, 3)
	h.ingestAll(t, ins)
	m := h.eng.Metrics().Snapshot()
	if m.Ingested != 100 {
		t.Errorf("ingested = %d", m.Ingested)
	}
	// Every tuple is stored once and probes the opposite store once:
	// 2 messages per input tuple.
	if m.ProbeSent != 200 {
		t.Errorf("probeSent = %d, want 200", m.ProbeSent)
	}
	if m.Stored != 100 {
		t.Errorf("stored = %d, want 100", m.Stored)
	}
	h.eng.Stop()
}

func TestBroadcastCostsMore(t *testing.T) {
	// Partitioned store with parallelism 4 and a probing tuple that
	// cannot know the partition: χ=4 tuples sent per probe.
	est := flatEstimates([]string{"R", "S"}, 100)
	hPart := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 4}, est, Config{})
	hNone := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 4, DisablePartitioning: true}, est, Config{})
	ins := randomStream(hPart.cat, 100, 10, 5)
	hPart.ingestAll(t, ins)
	hNone.ingestAll(t, ins)
	p := hPart.eng.Metrics().Snapshot().ProbeSent
	n := hNone.eng.Metrics().Snapshot().ProbeSent
	if n <= p {
		t.Errorf("broadcast plan sent %d tuples, partitioned %d — want broadcast > partitioned", n, p)
	}
	// Results identical either way.
	if fmt.Sprint(hPart.sinks["q1"].Results()) != fmt.Sprint(hNone.sinks["q1"].Results()) {
		t.Error("partitioning changed results")
	}
	hPart.eng.Stop()
	hNone.eng.Stop()
}

func TestMemoryLimitFailure(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true},
		flatEstimates([]string{"R", "S"}, 100),
		Config{MemoryLimitBytes: 2048})
	ins := randomStream(h.cat, 500, 4, 23)
	var failed error
	for _, in := range ins {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			failed = err
			break
		}
	}
	if failed == nil {
		t.Fatal("engine did not fail under a 2 KiB memory budget")
	}
	if h.eng.Failure() == nil {
		t.Error("Failure() not reporting")
	}
	h.eng.Stop()
}

func TestPruneReclaimsState(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100),
		Config{DefaultWindow: 10})
	ins := randomStream(h.cat, 200, 5, 31)
	h.ingestAll(t, ins)
	before := h.eng.Metrics().Snapshot().Stored
	h.eng.PruneBefore(h.eng.Watermark() - 10)
	h.eng.Drain()
	after := h.eng.Metrics().Snapshot().Stored
	if after >= before {
		t.Errorf("prune kept %d of %d stored tuples", after, before)
	}
	if after < 0 {
		t.Errorf("stored count went negative: %d", after)
	}
	h.eng.Stop()
}

func TestIngestValidation(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1},
		flatEstimates([]string{"R", "S"}, 100), Config{})
	if err := h.eng.Ingest("Z", 1, tuple.IntValue(1)); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := h.eng.Ingest("R", 1); err == nil {
		t.Error("wrong arity accepted")
	}
	h.eng.Stop()
	if err := h.eng.Ingest("R", 2, tuple.IntValue(1)); err == nil {
		t.Error("ingest after Stop accepted")
	}
}

func TestLatencyRecorded(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1},
		flatEstimates([]string{"R", "S"}, 100), Config{})
	h.ingestAll(t, []Ingestion{
		{Rel: "R", TS: 1, Vals: []tuple.Value{tuple.IntValue(7)}},
		{Rel: "S", TS: 2, Vals: []tuple.Value{tuple.IntValue(7)}},
	})
	m := h.eng.Metrics().Snapshot()
	if m.Results != 1 {
		t.Fatalf("results = %d, want 1", m.Results)
	}
	if m.LatCount != 1 || m.AvgLatency <= 0 {
		t.Errorf("latency not recorded: %+v", m)
	}
	h.eng.Metrics().ResetLatency()
	if h.eng.Metrics().Snapshot().LatCount != 0 {
		t.Error("ResetLatency did not clear")
	}
	h.eng.Stop()
}

func TestObserverTap(t *testing.T) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	est := flatEstimates([]string{"R", "S"}, 100)
	plan, _ := core.NewOptimizer(core.Options{}).Optimize(qs, est)
	topo, _ := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
	eng := New(Config{Catalog: cat, StepMode: true,
		Observer: func(rel string, tt *tuple.Tuple) { count++ }})
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := eng.Ingest("R", tuple.Time(i), tuple.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	if count != 10 {
		t.Errorf("observer saw %d tuples, want 10", count)
	}
	eng.Stop()
}

// TestIngestedTuplesRecycledOnFlow streams 10 000 tuples through a
// columnar engine on the flow substrate, without StepMode, with an
// Observer attached and a split key pinned on the stores: ingested
// tuples go back to their free lists while flow workers, the second
// send of a split-key probe and the statistics goroutine release their
// references concurrently (DESIGN.md §7). The Observer must see every
// tuple once, in ingest order, with its own values (a tuple recycled
// under it reads poison, or another tuple's values); the results must
// match ReferenceJoin; and the recycling must be real: far fewer
// distinct tuples observed than ingested.
func TestIngestedTuplesRecycledOnFlow(t *testing.T) {
	const n = 10000
	// Key 0 is hot, a quarter of each relation's stream; the rest spread
	// over a thousand keys.
	key := func(ts int64) int64 {
		if ts%8 < 2 {
			return 0
		}
		return ts * 7919 % 1000
	}
	ins := make([]Ingestion, n)
	for i := range ins {
		ts := int64(i + 1)
		ins[i] = Ingestion{Rel: []string{"R", "S"}[i%2], TS: tuple.Time(ts), Vals: []tuple.Value{tuple.IntValue(key(ts))}}
	}
	next := int64(1) // the ts the Observer expects next
	var bad string   // its first complaint
	distinct := map[*tuple.Tuple]struct{}{}
	observe := func(rel string, tt *tuple.Tuple) {
		distinct[tt] = struct{}{}
		ts := next
		next++
		if bad == "" && (int64(tt.TS) != ts || tt.Schema.Len() != 2 || tt.Values[0] != tuple.IntValue(key(ts)) || tt.Values[1] != tuple.IntValue(ts)) {
			bad = fmt.Sprintf("observation %d is %s %v, want ts %d, key %d", ts, rel, tt, ts, key(ts))
		}
	}
	qs, cat, topo := compileWorkload(t, "q1: R(a) S(a)", core.Options{StoreParallelism: 4},
		degreeEstimates([]string{"R", "S"}, 100, 0, 0.5))
	h := installHarness(t, qs, cat, topo, Config{Substrate: SubstrateFlow, StateBackend: BackendColumnar,
		DefaultWindow: 100, Observer: observe})
	defer h.eng.Stop()
	split := 0
	for _, p := range h.eng.Pins() {
		split += len(p.Split)
	}
	if split == 0 {
		t.Fatal("no split key pinned — the split-key sends are not exercised")
	}
	h.ingestAll(t, ins)
	if err := h.eng.Failure(); err != nil {
		t.Fatal(err)
	}
	if bad != "" {
		t.Error(bad)
	}
	if next != n+1 {
		t.Errorf("the Observer saw %d tuples, want %d", next-1, n)
	}
	h.checkAgainstOracle(t, ins)
	t.Logf("%d results; %d distinct tuples observed for %d ingested", h.sinks["q1"].Count(), len(distinct), n)
	if h.sinks["q1"].Count() == 0 {
		t.Error("no results — vacuous")
	}
	if len(distinct) > n/2 {
		t.Errorf("%d distinct tuples observed for %d ingested: ingested tuples are not recycled", len(distinct), n)
	}
}
