package runtime

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// skewedStream sends most tuples to one hot key (Zipf-like head) — the
// scenario partial key grouping (the paper's related work [30]) targets.
func skewedStream(rels []string, n int, hotShare int) []Ingestion {
	var out []Ingestion
	for i := 0; i < n; i++ {
		key := int64(0)
		if i%hotShare == hotShare-1 {
			key = int64(i % 13)
		}
		out = append(out, Ingestion{
			Rel:  rels[i%len(rels)],
			TS:   tuple.Time(i + 1),
			Vals: []tuple.Value{tuple.IntValue(key)},
		})
	}
	return out
}

// TestTaskSizesShape: every partition of every store is reported.
func TestTaskSizesShape(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 3},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateSynchronous})
	defer h.eng.Stop()
	h.ingestAll(t, skewedStream([]string{"R", "S"}, 60, 3))
	parts := map[topology.StoreID][]int{}
	for _, g := range h.eng.TaskGauges() {
		parts[g.Store] = append(parts[g.Store], g.Part)
	}
	if len(parts) == 0 {
		t.Fatal("no stores reported")
	}
	for sid, ps := range parts {
		if fmt.Sprint(ps) != "[0 1 2]" {
			t.Errorf("store %s reports partitions %v, want [0 1 2]", sid, ps)
		}
	}
}

// degreeEstimates decorates flat estimates with a sealed degree summary
// declaring hotVal a heavy hitter carrying `share` of every relation's
// stream on attribute a — what a stats.Collector seals after observing
// the skewed stream.
func degreeEstimates(rels []string, rate float64, hotVal int64, share float64) *stats.Estimates {
	e := flatEstimates(rels, rate)
	const n = 100000
	d := &stats.AttrDegrees{
		Count:    n,
		Distinct: 14,
		Top:      []stats.HeavyHitter{{Hash: tuple.IntValue(hotVal).Hash(), Count: int64(share * n)}},
	}
	for _, r := range rels {
		e.SetDegree(r+".a", d)
	}
	return e
}

// TestSplitKeysExact: a plan optimized with degree estimates carries the
// hot key as a split key end to end (optimizer → topology → pinned
// routing), and the results still exactly match the oracle — inserts of
// the split key land on one of its two candidate tasks, probes visit
// both, all other keys keep plain hash routing.
func TestSplitKeysExact(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 4},
		degreeEstimates([]string{"R", "S"}, 100, 0, 0.75),
		Config{Substrate: SubstrateSynchronous})
	defer h.eng.Stop()
	nSplit := 0
	for _, p := range h.eng.Pins() {
		if len(p.Split) > 0 {
			nSplit++
		}
	}
	if nSplit == 0 {
		t.Fatal("no split keys pinned — the degree estimates did not reach the topology")
	}
	ins := skewedStream([]string{"R", "S"}, 400, 4)
	h.ingestAll(t, ins)
	h.checkAgainstOracle(t, ins)
	if h.sinks["q1"].Count() == 0 {
		t.Fatal("no results — vacuous")
	}
}

// TestSplitKeysReduceImbalance: the degree-aware plan must spread the
// hot key's state over two tasks, dropping the maximum task load well
// below the uniform-cost plan's — while producing the same result
// multiset. Uniform keys are covered by TestSplitKeysNoRegression. The
// second arm takes its estimates end to end from a stats.Collector that
// observed and sealed the skewed stream: with the degree sketches
// stripped the plan declares no split key; with them it declares some,
// and the load drops while the results stay the same.
func TestSplitKeysReduceImbalance(t *testing.T) {
	ins := skewedStream([]string{"R", "S"}, 600, 8)
	run := func(est *stats.Estimates) (int64, int, map[string]int, int) {
		h := newHarness(t, "q1: R(a) S(a)",
			core.Options{StoreParallelism: 4}, est,
			Config{Substrate: SubstrateSynchronous})
		defer h.eng.Stop()
		h.ingestAll(t, ins)
		var worst int64
		for _, g := range h.eng.TaskGauges() {
			worst = max(worst, g.Stored)
		}
		splits := 0
		for _, s := range h.eng.ConfigFor(0).Stores {
			splits += len(s.SplitKeys)
		}
		return worst, h.sinks["q1"].Count(), h.sinks["q1"].Results(), splits
	}
	uniform, uniformResults, _, _ := run(flatEstimates([]string{"R", "S"}, 100))
	split, splitResults, _, _ := run(degreeEstimates([]string{"R", "S"}, 100, 0, 7.0/8))
	if splitResults != uniformResults {
		t.Fatalf("split-key plan produced %d results, uniform plan %d", splitResults, uniformResults)
	}
	if split >= uniform {
		t.Errorf("split-key max task load %d >= uniform %d", split, uniform)
	}
	if split > uniform*3/4 {
		t.Errorf("split-key max load %d not substantially below uniform %d", split, uniform)
	}

	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	schemas := map[string]*tuple.Schema{}
	for _, rel := range cat.Names() {
		schemas[rel] = tuple.NewSchema(cat.Relation(rel).QualifiedAttrs()...)
	}
	col := stats.NewCollector(512, 256, 7)
	for _, in := range ins {
		col.Observe(in.Rel, tuple.New(schemas[in.Rel], in.TS, in.Vals...))
	}
	sealed := col.Seal(time.Second, qs[0].Preds)
	stripped := sealed.Clone()
	stripped.Degrees = map[string]*stats.AttrDegrees{}
	flatLoad, _, flatRes, flatSplits := run(stripped)
	skewLoad, _, skewRes, skewSplits := run(sealed)
	t.Logf("sealed estimates: %d split keys, max task load %d; degrees stripped: %d split keys, max task load %d",
		skewSplits, skewLoad, flatSplits, flatLoad)
	if flatSplits != 0 {
		t.Errorf("the plan without degree sketches declared %d split keys, want 0", flatSplits)
	}
	if skewSplits == 0 {
		t.Fatal("the plan from the sealed degree sketches declared no split key")
	}
	if skewLoad >= flatLoad {
		t.Errorf("split-key max task load %d >= %d without degree sketches", skewLoad, flatLoad)
	}
	if len(flatRes) == 0 || !maps.Equal(skewRes, flatRes) {
		t.Errorf("results differ: %d distinct with split keys, %d without", len(skewRes), len(flatRes))
	}
}

// TestSplitKeysNoRegression: without observed skew the degree summary
// stays below the split threshold, so the plan must not declare split
// keys and routing stays plain hashing.
func TestSplitKeysNoRegression(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 4},
		degreeEstimates([]string{"R", "S"}, 100, 0, 0.05), // share below 1/par
		Config{Substrate: SubstrateSynchronous})
	defer h.eng.Stop()
	nSplit := 0
	for _, p := range h.eng.Pins() {
		if len(p.Split) > 0 {
			nSplit++
		}
	}
	if nSplit != 0 {
		t.Fatalf("balanced degree summary pinned %d split-key sets", nSplit)
	}
	ins := randomStream(h.cat, 300, 16, 7)
	h.ingestAll(t, ins)
	h.checkAgainstOracle(t, ins)
}

// recordingSub records every message the engine sends, by target task.
// With forward unset it drops them after recording, balancing the
// in-flight accounting, so a test can drive the router with tuples the
// stores must never see.
type recordingSub struct {
	substrate
	e       *Engine
	forward bool
	sent    []sentMsg
}

type sentMsg struct {
	to  taskKey
	msg message
}

func (r *recordingSub) send(t *task, msg message) {
	r.sent = append(r.sent, sentMsg{to: t.key, msg: msg})
	if r.forward {
		r.substrate.send(t, msg)
		return
	}
	r.e.dropUndelivered(&msg)
}

// splitEngine installs the flat-estimate plan of the workload at
// parallelism 4 on a synchronous engine whose sends are recorded. With
// split set, every partitioned store declares value 0 a split key — the
// same plan with and without split routing.
func splitEngine(t *testing.T, workload string, split, forward bool) (*Engine, *recordingSub, []*query.Query, *query.Catalog) {
	t.Helper()
	qs, cat, err := query.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	// At equal rates R(a) S(a,b) T(b) has two optimal plans: an S+T MIR
	// partitioned by S.a, and an R+S MIR partitioned by S.b. The end-to-end
	// arm of TestSplitKeysMixedBatchesExact mixes hot and cold a values, so
	// it needs the first: R arriving faster than T makes it the only optimum.
	est := flatEstimates(cat.Names(), 100)
	est.SetRate("R", 110)
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 4}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	if split {
		for _, s := range topo.Stores {
			if s.Parallelism >= 2 {
				s.SplitKeys = []uint64{tuple.IntValue(0).Hash()}
			}
		}
	}
	eng := New(Config{Catalog: cat, Substrate: SubstrateSynchronous})
	rec := &recordingSub{substrate: eng.sub, e: eng, forward: forward}
	eng.sub = rec
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	return eng, rec, qs, cat
}

// splitProbeSteps returns the installed emissions that probe a store
// with split keys by a routing attribute, keyed by edge and target.
func splitProbeSteps(eng *Engine) map[topology.EdgeID]map[topology.StoreID]*emitStep {
	out := map[topology.EdgeID]map[topology.StoreID]*emitStep{}
	add := func(steps []emitStep) {
		for i := range steps {
			s := &steps[i]
			if s.to == nil || s.to.split == nil || s.isStore || s.probeRoute == "" {
				continue
			}
			if out[s.edge] == nil {
				out[s.edge] = map[topology.StoreID]*emitStep{}
			}
			out[s.edge][s.to.id] = s
		}
	}
	comp := eng.configs[0].comp
	for _, steps := range comp.spouts {
		add(steps)
	}
	for _, byEdge := range comp.rules {
		for _, plans := range byEdge {
			for _, rp := range plans {
				add(rp.out)
			}
		}
	}
	return out
}

// TestSplitKeysMixedBatchesExact: a probe's result batch whose routing
// values mix a split (hot) key with cold keys goes through the one
// two-pass partitioner. Every hot probe must reach both of its
// candidate tasks, every cold one only its hash partition, each
// partition keeping batch order; and the run must byte-match the same
// plan without split keys.
func TestSplitKeysMixedBatchesExact(t *testing.T) {
	const workload = "q1: R(a) S(a,b) T(b)"
	hot := tuple.IntValue(0).Hash()

	// The partitioner alone, on a crafted batch of 12 probes on every
	// split probe emission: keys 0 (hot) and 1..5 (cold), alternating.
	eng, rec, _, _ := splitEngine(t, workload, true, false)
	steps := splitProbeSteps(eng)
	if len(steps) == 0 {
		t.Fatal("no probe emission into a split store — test vacuous")
	}
	var rs routeScratch
	for _, byTo := range steps {
		for _, step := range byTo {
			schema := tuple.NewSchema(step.probeRoute)
			batch := make([]*tuple.Tuple, 12)
			for i := range batch {
				k := int64(0)
				if i%2 == 1 {
					k = int64(1 + i%5)
				}
				batch[i] = tuple.New(schema, tuple.Time(i+1), tuple.IntValue(k))
			}
			rec.sent = rec.sent[:0]
			eng.mu.RLock()
			eng.emitBatchLocked(step, 0, batch, 1, 0, &rs)
			eng.mu.RUnlock()
			got := map[int][]*tuple.Tuple{}
			for _, s := range rec.sent {
				got[s.to.part] = append(got[s.to.part], s.msg.batch...)
			}
			want := map[int][]*tuple.Tuple{}
			for _, tp := range batch {
				v, _ := tp.Get(step.probeRoute)
				if h := v.Hash(); h == hot {
					p1, p2 := SplitCandidates(h, step.to.par)
					want[p1] = append(want[p1], tp)
					want[p2] = append(want[p2], tp)
				} else {
					p := int(h % uint64(step.to.par))
					want[p] = append(want[p], tp)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("edge %s → %s: partitions %v, want %v", step.edge, step.to.id, got, want)
			}
		}
	}

	// End to end: a T probe joins the S tuples of its b value, whose a
	// values mix the hot key 0 with cold ones, so the result batch headed
	// for R (and for the S⋈T store) by S.a mixes both. The cold keys share
	// the hot key's hash partition, so one message carries both kinds.
	p1, _ := SplitCandidates(hot, 4)
	var cold []tuple.Value
	for v := int64(1); len(cold) < 3; v++ {
		if c := tuple.IntValue(v); int(c.Hash()%4) == p1 {
			cold = append(cold, c)
		}
	}
	var ins []Ingestion
	for i := 0; i < 180; i++ {
		j := i / 3
		a, b := cold[j%3], tuple.IntValue(int64(1+j%3))
		if j%2 == 0 {
			a = tuple.IntValue(0)
		}
		in := Ingestion{TS: tuple.Time(i + 1)}
		switch i % 3 {
		case 0:
			in.Rel, in.Vals = "S", []tuple.Value{a, b}
		case 1:
			in.Rel, in.Vals = "T", []tuple.Value{b}
		default:
			in.Rel, in.Vals = "R", []tuple.Value{a}
		}
		ins = append(ins, in)
	}
	run := func(split bool) (map[string]int, *Engine, *recordingSub) {
		eng, rec, qs, _ := splitEngine(t, workload, split, true)
		sink := NewCollectSink()
		eng.OnResult(qs[0].Name, sink.Add)
		for _, in := range ins {
			if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		return sink.Results(), eng, rec
	}
	plain, _, _ := run(false)
	got, eng, rec := run(true)
	qs, cat, _ := query.ParseWorkload(workload)
	if want := ReferenceJoin(qs[0], cat, 0, ins); fmt.Sprint(plain) != fmt.Sprint(want) {
		t.Fatalf("unsplit engine diverges from the oracle: %d vs %d distinct results", len(plain), len(want))
	}
	if fmt.Sprint(got) != fmt.Sprint(plain) {
		t.Errorf("split engine: %d distinct results, unsplit %d — results differ", len(got), len(plain))
	}
	if len(plain) == 0 {
		t.Fatal("no results — test vacuous")
	}

	steps = splitProbeSteps(eng)
	type sentTuple struct {
		tp   *tuple.Tuple
		step *emitStep
	}
	parts := map[sentTuple]map[int]bool{}
	mixed := 0
	for _, s := range rec.sent {
		step := steps[s.msg.edge][s.to.store]
		if step == nil {
			continue
		}
		tps := s.msg.batch
		nHot := 0
		for _, tp := range tps {
			v, ok := tp.Get(step.probeRoute)
			if !ok {
				continue
			}
			if v.Hash() == hot {
				nHot++
			}
			k := sentTuple{tp, step}
			if parts[k] == nil {
				parts[k] = map[int]bool{}
			}
			parts[k][s.to.part] = true
		}
		if nHot > 0 && nHot < len(tps) {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no batch mixed hot and cold keys into a split store — test vacuous")
	}
	for k, ps := range parts {
		v, _ := k.tp.Get(k.step.probeRoute)
		h := v.Hash()
		want := map[int]bool{int(h % uint64(k.step.to.par)): true}
		if h == hot {
			p1, p2 := SplitCandidates(h, k.step.to.par)
			want = map[int]bool{p1: true, p2: true}
		}
		if fmt.Sprint(ps) != fmt.Sprint(want) {
			t.Fatalf("probe %v on edge %s reached partitions %v, want %v", k.tp, k.step.edge, ps, want)
		}
	}
}

func TestStoreSizesAndSnapshotString(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateSynchronous})
	defer h.eng.Stop()
	h.ingestAll(t, skewedStream([]string{"R", "S"}, 40, 2))
	var total int64
	for _, g := range h.eng.TaskGauges() {
		total += g.Stored
	}
	snap := h.eng.Metrics().Snapshot()
	if total != snap.Stored {
		t.Errorf("TaskGauges' Stored sum %d != Stored %d", total, snap.Stored)
	}
	if s := snap.String(); s == "" {
		t.Error("empty snapshot string")
	}
}
