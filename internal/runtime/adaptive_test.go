package runtime

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/ilp"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// adaptiveHarness wires an engine + controller with a stats collector.
func adaptiveHarness(t *testing.T, workload string, epochLen time.Duration, window time.Duration, static bool) (*harness, *Controller, *stats.Collector) {
	t.Helper()
	qs, cat, err := query.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	col := stats.NewCollector(256, 128, 1)
	eng := New(Config{
		Catalog:       cat,
		DefaultWindow: window,
		EpochLength:   epochLen,
		StepMode:      true,
		Observer: func(rel string, tt *tuple.Tuple) {
			col.Observe(rel, tt)
		},
	})
	initial := stats.NewEstimates(0.1)
	for _, rel := range cat.Names() {
		initial.SetRate(rel, 100)
	}
	ctl, err := NewController(eng, ControllerConfig{
		Optimizer: core.NewOptimizer(core.Options{StoreParallelism: 2}),
		Collector: col,
		Shared:    true,
		Static:    static,
	}, qs, initial)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: eng, cat: cat, queries: qs, sinks: map[string]*CollectSink{}, defW: window}
	for _, q := range qs {
		s := NewCollectSink()
		h.sinks[q.Name] = s
		eng.OnResult(q.Name, s.Add)
	}
	return h, ctl, col
}

func TestAdaptiveEpochsMatchOracle(t *testing.T) {
	// Epoch length 50, window 40: tuples span 1-2 epochs; results must
	// still match the oracle exactly across epoch boundaries.
	h, ctl, _ := adaptiveHarness(t, "q1: R(a) S(a,b) T(b)", 50, 40, false)
	ins := randomStream(h.cat, 300, 5, 19)
	for _, in := range ins {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.Drain()
	h.checkAgainstOracle(t, ins)
	if h.sinks["q1"].Count() == 0 {
		t.Fatal("no results — vacuous")
	}
	if ctl.Reoptimizations() < 1 {
		t.Errorf("no configuration installed: %d", ctl.Reoptimizations())
	}
	h.eng.Stop()
}

func TestAdaptiveReactsToCharacteristicShift(t *testing.T) {
	h, ctl, _ := adaptiveHarness(t, "q1: R(a) S(a,b) T(b)", 100, 80, false)
	// Phase 1: S–T joins are rare, R–S common; phase 2 flips.
	var ins []Ingestion
	ts := tuple.Time(0)
	emit := func(rel string, vals ...tuple.Value) {
		ts += 1
		ins = append(ins, Ingestion{Rel: rel, TS: ts, Vals: vals})
	}
	phase := func(rsMatch, stMatch bool, n int) {
		for i := 0; i < n; i++ {
			a := tuple.IntValue(int64(i % 4))
			aMiss := tuple.IntValue(int64(1000 + i))
			b := tuple.IntValue(int64(i % 4))
			bMiss := tuple.IntValue(int64(2000 + i))
			if rsMatch {
				emit("R", a)
				emit("S", a, bMiss)
			} else {
				emit("R", aMiss)
				emit("S", a, b)
			}
			if stMatch {
				emit("T", b)
			} else {
				emit("T", bMiss)
			}
		}
	}
	phase(true, false, 60)
	phase(false, true, 60)
	for _, in := range ins {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.Drain()
	if ctl.Reoptimizations() < 2 {
		t.Errorf("controller never re-optimized: %d", ctl.Reoptimizations())
	}
	// Estimates must have picked up the later phase's S–T selectivity.
	est := ctl.Estimates()
	st := query.Predicate{Left: query.Attr{Rel: "S", Name: "b"}, Right: query.Attr{Rel: "T", Name: "b"}}
	rs := query.Predicate{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}}
	if est.Selectivity(st) <= est.Selectivity(rs) {
		t.Errorf("blended estimates did not track the shift: sel(ST)=%g sel(RS)=%g",
			est.Selectivity(st), est.Selectivity(rs))
	}
	h.eng.Stop()
}

func TestStaticControllerNeverRewires(t *testing.T) {
	h, ctl, _ := adaptiveHarness(t, "q1: R(a) S(a)", 50, 40, true)
	ins := randomStream(h.cat, 200, 5, 29)
	for _, in := range ins {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.Drain()
	if got := ctl.Reoptimizations(); got != 1 {
		t.Errorf("static controller reoptimized %d times, want 1 (initial install)", got)
	}
	// Static execution is still correct.
	h.checkAgainstOracle(t, ins)
	h.eng.Stop()
}

func TestQueryChurn(t *testing.T) {
	h, ctl, _ := adaptiveHarness(t, "q1: R(a) S(a)", 50, 1000, false)
	// q2 joins S with T; T is already known to the catalog? It is not —
	// churn within the catalog's relations only.
	q2 := query.MustParse("q2: R(a) S(a)")
	q2.Name = "q2"
	sink2 := NewCollectSink()
	h.eng.OnResult("q2", sink2.Add)

	ins := randomStream(h.cat, 120, 4, 37)
	half := len(ins) / 2
	for _, in := range ins[:half] {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	if err := ctl.AddQuery(q2); err == nil {
		t.Error("duplicate AddQuery should fail")
	}
	for _, in := range ins[half:] {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.Drain()
	if sink2.Count() == 0 {
		t.Error("newly added query produced no results")
	}
	// q1 ran the whole time and must still be exact.
	h.checkAgainstOracle(t, ins)

	if err := ctl.RemoveQuery("q2"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.RemoveQuery("q2"); err == nil {
		t.Error("removing an absent query should fail")
	}
	h.eng.Stop()
}

// TestControllerKeepsItsReopt pins that every controller carries its
// optimizer state from solve to solve: after an AddQuery, the solve of
// the grown query set repaired the initial solve's incumbent and found
// the unchanged queries' candidate structures cached.
func TestControllerKeepsItsReopt(t *testing.T) {
	h, ctl, _ := adaptiveHarness(t, "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b)", 0, 1000, true)
	defer h.eng.Stop()
	if err := ctl.AddQuery(query.MustParse("q3: S(a) R(a)")); err != nil {
		t.Fatal(err)
	}
	h.eng.Drain()
	if err := h.eng.Failure(); err != nil {
		t.Fatal(err)
	}
	st := ctl.reopt.Stats()
	if st.RepairsFeasible < 1 || st.TopHits == 0 {
		t.Fatalf("the AddQuery solve did not reuse the initial solve's state: %d feasible repairs, %d top-level structure hits", st.RepairsFeasible, st.TopHits)
	}
	if got := ctl.Reoptimizations(); got != 2 {
		t.Fatalf("%d configurations installed, want the initial one and the AddQuery's", got)
	}
}

func TestControllerInstallsConfigsAhead(t *testing.T) {
	h, ctl, _ := adaptiveHarness(t, "q1: R(a) S(a)", 100, 80, false)
	ins := randomStream(h.cat, 250, 5, 41)
	for _, in := range ins {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.Drain()
	cur := h.eng.Epoch(h.eng.Watermark())
	// Decisions made at epoch i take effect at i+2 (Fig. 5).
	if cfg := h.eng.ConfigFor(cur + 2); cfg == nil {
		t.Error("no configuration installed ahead of the watermark")
	}
	h.eng.Stop()
}

// TestSolveBesideStreamMatchesInline pins that solving beside the stream
// changes when a decision is computed, never what is installed where:
// one schedule — epoch re-plans interleaved with AddQuery and
// RemoveQuery in mid-epoch, so a churn solve for e+1 queues behind a
// re-plan for e+2 — runs once with Drain after every trigger, which
// installs each decision before the stream moves on as an inline solve
// did, and once without. Both must install the same (epoch, plan
// signature) sequence and deliver byte-identical results in the same
// order.
func TestSolveBesideStreamMatchesInline(t *testing.T) {
	epochs := 36
	if testing.Short() {
		epochs = 18
	}
	const epochLen = 20
	type decision struct {
		epoch int64
		sig   string
	}
	type outcome struct {
		decisions []decision
		results   []string
		// Beside-the-stream arm only: churn steps after which
		// Reoptimizations() had not moved yet, and those whose solve
		// queued behind a pending one for a later epoch.
		unmoved, behindLater int
	}
	run := func(inline bool) outcome {
		pool, cat, err := query.ParseWorkload(`
q1: R(a) S(a,b) T(b)
q2: S(b) T(b,c) U(c)
q3: R(a) S(a,b) T(b,c) U(c)
q4: T(c) U(c)`)
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		col := stats.NewCollector(64, 32, 1)
		eng := New(Config{
			Catalog:       cat,
			DefaultWindow: 3 * epochLen,
			EpochLength:   epochLen,
			Substrate:     SubstrateSynchronous,
			Observer:      func(rel string, tt *tuple.Tuple) { col.Observe(rel, tt) },
		})
		defer eng.Stop()
		initial := stats.NewEstimates(0.1)
		for _, rel := range cat.Names() {
			initial.SetRate(rel, 100)
		}
		ctl, err := NewController(eng, ControllerConfig{
			Optimizer: core.NewOptimizer(core.Options{StoreParallelism: 2}),
			Collector: col,
			Shared:    true,
			OnDecision: func(epoch int64, plans, warming []*core.Plan) {
				out.decisions = append(out.decisions, decision{epoch, planSignature(plans, warming)})
			},
		}, pool[:2], initial)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range pool {
			name := q.Name
			eng.OnResult(name, func(tt *tuple.Tuple) { out.results = append(out.results, name+" "+tt.String()) })
		}
		tick := func() {
			if err := ctl.Tick(); err != nil {
				t.Fatal(err)
			}
			if inline {
				eng.Drain()
			}
		}
		churn := func(f func() error) {
			before := ctl.Reoptimizations()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			if inline {
				eng.Drain()
				return
			}
			if ctl.Reoptimizations() == before {
				out.unmoved++
			}
			eng.barrier.mu.Lock()
			pending := slices.Clone(eng.barrier.pending)
			eng.barrier.mu.Unlock()
			if n := len(pending); n > 0 && slices.ContainsFunc(pending, func(p *pendingSolve) bool { return p.target > pending[n-1].target }) {
				out.behindLater++
			}
		}

		r := rng.New(11)
		rels := cat.Names()
		steps := 0
		for ts := tuple.Time(1); ts <= tuple.Time(epochs*epochLen); ts++ {
			rel := cat.Relation(rels[r.Intn(len(rels))])
			vals := make([]tuple.Value, len(rel.Attrs))
			for j := range vals {
				vals[j] = tuple.IntValue(r.Int64n(4))
			}
			if err := eng.Ingest(rel.Name, ts, vals...); err != nil {
				t.Fatal(err)
			}
			tick()
			// Mid-epoch churn every third epoch, after the epoch's re-plan
			// (for e+2) was triggered: q3 and q4 arrive, then leave again.
			if ts%epochLen == 7 && (ts/epochLen)%3 == 1 {
				q := pool[2+steps/2%2]
				if steps%2 == 0 {
					churn(func() error { return ctl.AddQuery(q) })
				} else {
					churn(func() error { return ctl.RemoveQuery(q.Name) })
				}
				steps++
			}
		}
		eng.Drain()
		if err := eng.Failure(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	inline, beside := run(true), run(false)
	if len(inline.decisions) < 4 || len(inline.results) == 0 {
		t.Fatalf("vacuous: %d decisions, %d results", len(inline.decisions), len(inline.results))
	}
	if !slices.Equal(inline.decisions, beside.decisions) {
		for i := 0; i < min(len(inline.decisions), len(beside.decisions)); i++ {
			if inline.decisions[i] != beside.decisions[i] {
				t.Fatalf("decision %d differs: epoch %d inline, %d beside the stream (of %d / %d decisions)",
					i, inline.decisions[i].epoch, beside.decisions[i].epoch, len(inline.decisions), len(beside.decisions))
			}
		}
		t.Fatalf("%d decisions inline, %d beside the stream", len(inline.decisions), len(beside.decisions))
	}
	if !slices.Equal(inline.results, beside.results) {
		t.Fatalf("results differ: %d inline, %d beside the stream", len(inline.results), len(beside.results))
	}
	if beside.unmoved == 0 {
		t.Error("Reoptimizations() moved at every trigger: no solve ran beside the stream")
	}
	if beside.behindLater == 0 {
		t.Error("no churn solve queued behind a re-plan for a later epoch: the min-target barrier went untested")
	}
	t.Logf("%d decisions, %d results; beside the stream: %d churn steps unmoved, %d behind a later re-plan",
		len(beside.decisions), len(beside.results), beside.unmoved, beside.behindLater)
}

// TestMeasuredCostsMoveNoPlan pins that MeasuredCosts only meters: an
// adaptive churn run whose plans price materialization installs the same
// plans, to the objective's last bit, at every decision with the task
// meters on as with them off, and delivers the same results in the same
// order. The workload's queries share R⋈S, so its plans feed MIR stores
// and carry materialization steps; a cost model that read the meters
// would price those steps differently.
func TestMeasuredCostsMoveNoPlan(t *testing.T) {
	const epochLen = 20
	type outcome struct {
		decisions []string
		results   []string
		fed       int // selected feeding orders, over every decision
	}
	run := func(measured bool) outcome {
		pool, cat, err := query.ParseWorkload(`
q1: R(a) S(a,b) T(b)
q2: R(a) S(a,b) U(b)
q3: R(a) S(a,b) T(b,c) U(c)
q4: R(a) S(a,c) U(c)`)
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		col := stats.NewCollector(64, 32, 1)
		eng := New(Config{
			Catalog:       cat,
			DefaultWindow: 3 * epochLen,
			EpochLength:   epochLen,
			Substrate:     SubstrateSynchronous,
			MeasuredCosts: measured,
			Observer:      func(rel string, tt *tuple.Tuple) { col.Observe(rel, tt) },
		})
		defer eng.Stop()
		initial := stats.NewEstimates(0.1)
		for _, rel := range cat.Names() {
			initial.SetRate(rel, 100)
		}
		ctl, err := NewController(eng, ControllerConfig{
			Optimizer: core.NewOptimizer(core.Options{StoreParallelism: 2, MaterializationCost: true, Solver: ilp.Options{MaxNodes: 500}}),
			Collector: col,
			Shared:    true,
			OnDecision: func(epoch int64, plans, warming []*core.Plan) {
				d := fmt.Sprintf("epoch %d:", epoch)
				for _, p := range append(slices.Clone(plans), warming...) {
					d += fmt.Sprintf(" %x", math.Float64bits(p.Objective))
					for _, o := range p.Selected {
						if o.ForMIR != "" {
							out.fed++
						}
					}
				}
				out.decisions = append(out.decisions, d+"\n"+planSignature(plans, warming))
			},
		}, pool[:2], initial)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range pool {
			name := q.Name
			eng.OnResult(name, func(tt *tuple.Tuple) { out.results = append(out.results, name+" "+tt.String()) })
		}
		r := rng.New(5)
		rels := cat.Names()
		steps := 0
		for ts := tuple.Time(1); ts <= 30*epochLen; ts++ {
			rel := cat.Relation(rels[r.Intn(len(rels))])
			vals := make([]tuple.Value, len(rel.Attrs))
			for j := range vals {
				vals[j] = tuple.IntValue(r.Int64n(4))
			}
			if err := eng.Ingest(rel.Name, ts, vals...); err != nil {
				t.Fatal(err)
			}
			if err := ctl.Tick(); err != nil {
				t.Fatal(err)
			}
			// Every third epoch, q3 and q4 arrive, then leave again.
			if ts%epochLen == 7 && (ts/epochLen)%3 == 1 {
				q := pool[2+steps/2%2]
				if steps%2 == 0 {
					err = ctl.AddQuery(q)
				} else {
					err = ctl.RemoveQuery(q.Name)
				}
				if err != nil {
					t.Fatal(err)
				}
				steps++
			}
		}
		eng.Drain()
		if err := eng.Failure(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	off, on := run(false), run(true)
	if len(off.decisions) < 4 || len(off.results) == 0 || off.fed == 0 {
		t.Fatalf("vacuous: %d decisions, %d results, %d feeding orders selected", len(off.decisions), len(off.results), off.fed)
	}
	for i := range min(len(off.decisions), len(on.decisions)) {
		if off.decisions[i] != on.decisions[i] {
			t.Fatalf("decision %d differs with the task meters on:\n  off: %s\n  on:  %s", i, off.decisions[i], on.decisions[i])
		}
	}
	if len(off.decisions) != len(on.decisions) {
		t.Fatalf("%d decisions with the task meters off, %d on", len(off.decisions), len(on.decisions))
	}
	if !slices.Equal(off.results, on.results) {
		t.Fatalf("results differ: %d with the task meters off, %d on", len(off.results), len(on.results))
	}
	t.Logf("%d decisions (%d feeding orders selected), %d results", len(off.decisions), off.fed, len(off.results))
}
