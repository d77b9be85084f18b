package runtime

import (
	"testing"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// The Synchronous substrate must be exact: identical to the reference
// oracle on every workload shape, including plans that feed MIR stores
// over multi-hop chains (the case free-running mode can lose to races).

func TestSynchronousTwoWayMatchesOracle(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100), Config{Substrate: SubstrateSynchronous})
	ins := randomStream(h.cat, 220, 8, 5)
	h.ingestAll(t, ins)
	h.checkAgainstOracle(t, ins)
	if h.sinks["q1"].Count() == 0 {
		t.Fatal("no results at all — test vacuous")
	}
	h.eng.Stop()
}

func TestSynchronousThreeWayMatchesOracle(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a,b) T(b)",
		core.Options{StoreParallelism: 4},
		flatEstimates([]string{"R", "S", "T"}, 100), Config{Substrate: SubstrateSynchronous})
	ins := randomStream(h.cat, 240, 6, 9)
	h.ingestAll(t, ins)
	h.checkAgainstOracle(t, ins)
	h.eng.Stop()
}

func TestSynchronousMIRPlanMatchesOracle(t *testing.T) {
	// Force a materialized ST store (cf. TestMIRPlanMatchesOracle) so the
	// feeding chain runs through the synchronous work queue.
	est := stats.NewEstimates(0.01)
	est.SetRate("R", 1000)
	est.SetRate("S", 10)
	est.SetRate("T", 10)
	h := newHarness(t, "q1: R(a) S(a,b) T(b)",
		core.Options{StoreParallelism: 2, MaterializationCost: true},
		est, Config{Substrate: SubstrateSynchronous})
	usesMIR := false
	for _, s := range h.eng.ConfigFor(0).Stores {
		if !s.Base() {
			usesMIR = true
		}
	}
	ins := randomStream(h.cat, 260, 5, 21)
	h.ingestAll(t, ins)
	h.checkAgainstOracle(t, ins)
	if !usesMIR {
		t.Log("plan did not materialize an MIR store; oracle check still holds")
	}
	h.eng.Stop()
}

// TestSynchronousOneResultForwardsMatchOracle: an R tuple probes S and
// finds four partners, which travel to T as one message; each of those
// probes finds exactly one T partner, and each one-result forward
// travels on to U. A batch of one is sent without a copy, so the forward
// must not hand over the probe batch's scratch, which is cleared and
// refilled before U handles the message.
func TestSynchronousOneResultForwardsMatchOracle(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a,b) T(b,c) U(c)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true, DisableMIRs: true},
		flatEstimates([]string{"R", "S", "T", "U"}, 100), Config{Substrate: SubstrateSynchronous})
	defer h.eng.Stop()
	for _, id := range h.eng.ConfigFor(0).StoreIDs() {
		if !h.eng.ConfigFor(0).Stores[id].Base() {
			t.Fatalf("plan materializes %s: R's probe chain is not S, T, U — test vacuous", id)
		}
	}
	var ins []Ingestion
	ts := tuple.Time(0)
	add := func(rel string, vals ...int64) {
		ts++
		in := Ingestion{Rel: rel, TS: ts}
		for _, v := range vals {
			in.Vals = append(in.Vals, tuple.IntValue(v))
		}
		ins = append(ins, in)
	}
	for i := int64(0); i < 4; i++ {
		add("S", 0, i)
		add("T", i, i)
		add("U", i)
	}
	add("R", 0)
	add("R", 0)
	h.ingestAll(t, ins)
	h.checkAgainstOracle(t, ins)
	if n := h.sinks["q1"].Count(); n != 8 {
		t.Errorf("%d results, want 8", n)
	}
	if m := h.eng.Snapshot(); m.ProbeSent <= m.Messages {
		t.Errorf("%d probe tuples in %d messages: no message carried a batch — test vacuous", m.ProbeSent, m.Messages)
	}
}

func TestSynchronousWindowedMatchesOracle(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateSynchronous, DefaultWindow: 20})
	ins := randomStream(h.cat, 300, 5, 17)
	h.ingestAll(t, ins)
	h.checkAgainstOracle(t, ins)
	h.eng.Stop()
}

func TestSynchronousDeterministicMetrics(t *testing.T) {
	run := func() Snapshot {
		h := newHarness(t, "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)",
			core.Options{StoreParallelism: 3},
			flatEstimates([]string{"R", "S", "T", "U"}, 100), Config{Substrate: SubstrateSynchronous})
		defer h.eng.Stop()
		h.ingestAll(t, randomStream(h.cat, 300, 5, 13))
		return h.eng.Metrics().Snapshot()
	}
	a, b := run(), run()
	if a.Results != b.Results || a.ProbeSent != b.ProbeSent || a.Messages != b.Messages || a.Stored != b.Stored {
		t.Errorf("synchronous runs diverged:\n%v\n%v", a, b)
	}
	if a.Results == 0 {
		t.Fatal("no results — test vacuous")
	}
}

func TestSynchronousPruneReclaimsState(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100), Config{Substrate: SubstrateSynchronous})
	defer h.eng.Stop()
	for i := 0; i < 100; i++ {
		rel := "R"
		if i%2 == 1 {
			rel = "S"
		}
		if err := h.eng.Ingest(rel, tuple.Time(i), tuple.IntValue(int64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	before := h.eng.Metrics().Snapshot().Stored
	if before == 0 {
		t.Fatal("nothing stored")
	}
	h.eng.PruneBefore(50)
	after := h.eng.Metrics().Snapshot().Stored
	if after >= before {
		t.Errorf("prune did not reclaim: stored %d -> %d", before, after)
	}
	// All remaining tuples are within [50, 100).
	if after != before/2 {
		t.Errorf("stored after prune = %d, want %d", after, before/2)
	}
}

// TestBatchedResultMessaging pins the Sec. III messaging model: a probe
// that finds k partners sends k probe tuples downstream but only one
// messaging event per target task ("result tuples are sent together in
// one message").
func TestBatchedResultMessaging(t *testing.T) {
	// DisableMIRs pins the iterative plan ⟨R,S,T⟩ for arriving-R tuples,
	// making the expected message count exact.
	h := newHarness(t, "q1: R(a) S(a,b) T(b)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true, DisableMIRs: true},
		flatEstimates([]string{"R", "S", "T"}, 100), Config{Substrate: SubstrateSynchronous})
	defer h.eng.Stop()

	const k = 8
	// k S-tuples sharing a=1 with distinct b, and one T partner per b.
	for i := 0; i < k; i++ {
		if err := h.eng.Ingest("S", tuple.Time(i+1), tuple.IntValue(1), tuple.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := h.eng.Ingest("T", tuple.Time(i+100), tuple.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	before := h.eng.Metrics().Snapshot()

	// The R-tuple matches all k S-tuples; the plan for arriving-R tuples
	// is ⟨R,S,T⟩, so the k intermediates travel to the T store together.
	if err := h.eng.Ingest("R", 500, tuple.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	after := h.eng.Metrics().Snapshot()

	if got := h.sinks["q1"].Count(); got != k {
		t.Fatalf("results = %d, want %d", got, k)
	}
	// Messages: R→R-store insert, R→S-store probe, one batched
	// S⋈R→T-store probe. Probe tuples: 1 + 1 + k.
	if dm := after.Messages - before.Messages; dm != 3 {
		t.Errorf("messaging events for the R-tuple = %d, want 3", dm)
	}
	if dp := after.ProbeSent - before.ProbeSent; dp != int64(2+k) {
		t.Errorf("probe tuples for the R-tuple = %d, want %d", dp, 2+k)
	}
}

// TestSynchronousEpochConfigs checks Algorithm 4's epoch-keyed ruleset
// resolution on the synchronous substrate: a config installed from epoch
// 1 must not affect tuples of epoch 0, and cross-epoch join partners are
// still found (containers are scanned across epochs).
func TestSynchronousEpochConfigs(t *testing.T) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	o := core.NewOptimizer(core.Options{StoreParallelism: 1, DisablePartitioning: true})
	plan, err := o.Optimize(qs, flatEstimates([]string{"R", "S"}, 100))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Catalog: cat, Substrate: SubstrateSynchronous, EpochLength: 100})
	defer eng.Stop()
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	// Install the same topology again from epoch 1; results must be
	// continuous across the boundary (the stores are shared).
	if err := eng.Install(topo, 1); err != nil {
		t.Fatal(err)
	}
	sink := NewCollectSink()
	eng.OnResult("q1", sink.Add)
	// One R in epoch 0, one matching S in epoch 1.
	if err := eng.Ingest("R", 50, tuple.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest("S", 150, tuple.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	if got := sink.Count(); got != 1 {
		t.Errorf("cross-epoch join results = %d, want 1", got)
	}
}

// TestRepartitionedConfigBroadcasts: a later config that declares a
// different partitioning for a pinned store cannot key its probes —
// the engine must fall back to broadcast and stay exact.
func TestRepartitionedConfigBroadcasts(t *testing.T) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	o := core.NewOptimizer(core.Options{StoreParallelism: 3})
	plan, err := o.Optimize(qs, flatEstimates([]string{"R", "S"}, 100))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	// Second config: same structure, different partition attribute on
	// every store (zero Attr = unpartitioned), taking effect at epoch 1.
	topo2, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range topo2.Stores {
		s.Partition = query.Attr{}
	}
	eng := New(Config{Catalog: cat, Substrate: SubstrateSynchronous, EpochLength: 50})
	defer eng.Stop()
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Install(topo2, 1); err != nil {
		t.Fatal(err)
	}
	sink := NewCollectSink()
	eng.OnResult("q1", sink.Add)
	// Partners across the config boundary: R in epoch 0, S in epoch 1.
	var ins []Ingestion
	for i := 0; i < 40; i++ {
		ins = append(ins, Ingestion{Rel: "R", TS: tuple.Time(i), Vals: []tuple.Value{tuple.IntValue(int64(i % 5))}})
		ins = append(ins, Ingestion{Rel: "S", TS: tuple.Time(60 + i), Vals: []tuple.Value{tuple.IntValue(int64(i % 5))}})
	}
	for _, in := range ins {
		if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	q := qs[0]
	want := ReferenceJoin(q, cat, 0, ins)
	got := sink.Results()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("result %q = %d, oracle %d", k, got[k], n)
		}
	}
	for k := range got {
		if want[k] == 0 {
			t.Errorf("spurious result %q", k)
		}
	}
}
