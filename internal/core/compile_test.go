package core

import (
	"strings"
	"testing"

	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/topology"
)

func compileWorkedExample(t *testing.T, shared bool) *topology.Config {
	t.Helper()
	qs, est := workedExample()
	o := NewOptimizer(exampleOptions())
	if shared {
		plan, err := o.Optimize(qs, est)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := Compile([]*Plan{plan}, CompileOptions{Shared: true})
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	plans, err := o.OptimizeIndividually(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Compile(plans, CompileOptions{Shared: false})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestCompileSharedTopology(t *testing.T) {
	cfg := compileWorkedExample(t, true)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The worked example probes all four base stores and no MIR stores.
	if len(cfg.Stores) != 4 {
		t.Errorf("stores = %d (%v), want 4", len(cfg.Stores), cfg.StoreIDs())
	}
	if len(cfg.Spouts) != 4 {
		t.Errorf("spouts = %d, want 4", len(cfg.Spouts))
	}
	// Both queries must reach a sink.
	s := cfg.String()
	if !strings.Contains(s, "sink:q1") || !strings.Contains(s, "sink:q2") {
		t.Errorf("missing sinks in topology:\n%s", s)
	}
}

func TestCompileSharesTransfers(t *testing.T) {
	cfg := compileWorkedExample(t, true)
	// q1 selects ⟨S,T,R⟩ and q2 ⟨S,T,U⟩: the S spout must emit the
	// probe transfer to the T store exactly once (shared prefix), plus
	// the store edge for S itself: 2 emissions total.
	sp := cfg.Spouts["S"]
	if sp == nil {
		t.Fatal("no spout for S")
	}
	probeEmissions := 0
	for _, em := range sp.Out {
		if !strings.HasPrefix(string(em.Edge), "store:") {
			probeEmissions++
		}
	}
	if probeEmissions != 1 {
		t.Errorf("S spout probe emissions = %d, want 1 (shared S→T transfer)", probeEmissions)
	}
}

func TestCompileIndependentDuplicatesStores(t *testing.T) {
	shared := compileWorkedExample(t, true)
	indep := compileWorkedExample(t, false)
	if len(indep.Stores) <= len(shared.Stores) {
		t.Errorf("independent mode should duplicate stores: %d vs %d",
			len(indep.Stores), len(shared.Stores))
	}
	// Namespaced IDs.
	found := false
	for id := range indep.Stores {
		if strings.Contains(string(id), "::") {
			found = true
		}
	}
	if !found {
		t.Error("independent stores are not namespaced")
	}
}

func TestCompileMIRInsertPath(t *testing.T) {
	// Force an MIR plan and check the feeding insert edge + store rule.
	q1 := query.MustParse("q1: R(a) S(a,b) T(b)")
	est := stats.NewEstimates(0.01)
	est.SetRate("R", 100)
	est.SetRate("S", 100)
	est.SetRate("T", 100)
	est.SetSelectivity(query.Predicate{
		Left:  query.Attr{Rel: "R", Name: "a"},
		Right: query.Attr{Rel: "S", Name: "a"},
	}, 0.2)
	o := NewOptimizer(Options{StoreParallelism: 1, DisablePartitioning: true})
	plan, err := o.Optimize([]*query.Query{q1}, est)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Compile([]*Plan{plan}, CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	var mirStore *topology.Store
	for _, s := range cfg.Stores {
		if !s.Base() {
			mirStore = s
		}
	}
	if mirStore == nil {
		t.Fatalf("no MIR store compiled:\n%s", cfg)
	}
	// The MIR store must have a StoreRule fed from the probe trees.
	hasInsert := false
	for _, rules := range cfg.Rules[mirStore.ID] {
		for _, r := range rules {
			if r.Kind == topology.StoreRule {
				hasInsert = true
			}
		}
	}
	if !hasInsert {
		t.Errorf("MIR store %s has no insert rule:\n%s", mirStore.ID, cfg)
	}
}

// countInsertEmissions counts (rule, emission) pairs anywhere in the
// topology that insert into the given store (target edges carrying a
// StoreRule there). Spout store-edges are excluded: they keep base
// stores up to date, not MIR stores.
func countInsertEmissions(cfg *topology.Config, sid topology.StoreID) int {
	isInsertEdge := func(edge topology.EdgeID) bool {
		for _, r := range cfg.Rules[sid][edge] {
			if r.Kind == topology.StoreRule {
				return true
			}
		}
		return false
	}
	n := 0
	for _, byEdge := range cfg.Rules {
		for _, rules := range byEdge {
			for _, r := range rules {
				if r.Kind != topology.ProbeRule {
					continue
				}
				for _, em := range r.Out {
					if em.To == sid && isInsertEdge(em.Edge) {
						n++
					}
				}
			}
		}
	}
	return n
}

// TestCompileSharedDedupesFeeding pins the FS/SS correctness fix: when
// two per-query plans materialize the same intermediate result, the
// shared compilation must wire exactly one feeding path per input
// relation of the merged store — a second path would insert every pair
// twice and double every downstream join result.
func TestCompileSharedDedupesFeeding(t *testing.T) {
	// Both queries contain the S–T join; expensive R–S and W–S prefixes
	// push both individual plans into materializing ST.
	qs, _, err := query.ParseWorkload("q1: R(a) S(a,b) T(b)\nq2: W(a) S(a,b) T(b)")
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimates(0.01)
	for _, r := range []string{"R", "S", "T", "W"} {
		est.SetRate(r, 100)
	}
	for _, rel := range []string{"R", "W"} {
		est.SetSelectivity(query.Predicate{
			Left:  query.Attr{Rel: rel, Name: "a"},
			Right: query.Attr{Rel: "S", Name: "a"},
		}, 0.5)
	}
	o := NewOptimizer(Options{StoreParallelism: 1, DisablePartitioning: true})
	plans, err := o.OptimizeIndividually(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	mirPlans := 0
	for _, p := range plans {
		for _, d := range p.Selected {
			if d.ForMIR != "" {
				mirPlans++
				break
			}
		}
	}
	if mirPlans != 2 {
		t.Fatalf("%d of 2 individual plans materialize an MIR; estimates no longer force sharing", mirPlans)
	}

	cfg, err := Compile(plans, CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	var mirStore *topology.Store
	for _, s := range cfg.Stores {
		if !s.Base() {
			if mirStore != nil {
				t.Fatalf("expected one merged MIR store, got several:\n%s", cfg)
			}
			mirStore = s
		}
	}
	if mirStore == nil {
		t.Fatalf("no MIR store compiled:\n%s", cfg)
	}
	// Exactly one insert emission per input relation of the MIR.
	if got, want := countInsertEmissions(cfg, mirStore.ID), len(mirStore.Rels); got != want {
		t.Errorf("insert emissions into %s = %d, want %d (one per input relation)\n%s",
			mirStore.ID, got, want, cfg)
	}

	// The independent compilation keeps one private store per plan, each
	// with its own feeding paths.
	indep, err := Compile(plans, CompileOptions{Shared: false})
	if err != nil {
		t.Fatal(err)
	}
	private := 0
	for _, s := range indep.Stores {
		if !s.Base() {
			private++
			if got, want := countInsertEmissions(indep, s.ID), len(s.Rels); got != want {
				t.Errorf("independent store %s insert emissions = %d, want %d", s.ID, got, want)
			}
		}
	}
	if private != 2 {
		t.Errorf("independent compilation merged MIR stores: %d private stores, want 2", private)
	}
}

func TestCompileServesRefCounting(t *testing.T) {
	cfg := compileWorkedExample(t, true)
	// S and T stores serve both queries; R serves q1 only; U serves q2.
	find := func(label string) topology.StoreID {
		for id, s := range cfg.Stores {
			if s.Label == label {
				return id
			}
		}
		t.Fatalf("store %s missing", label)
		return ""
	}
	if n := cfg.RefCount(find("S")); n != 2 {
		t.Errorf("S refcount = %d, want 2", n)
	}
	if n := cfg.RefCount(find("R")); n != 1 {
		t.Errorf("R refcount = %d, want 1", n)
	}
	if n := cfg.RefCount(find("U")); n != 1 {
		t.Errorf("U refcount = %d, want 1", n)
	}
}

func TestCompileEmptyPlan(t *testing.T) {
	cfg, err := Compile([]*Plan{{Partitions: map[string]query.Attr{}}}, CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Stores) != 0 || len(cfg.Spouts) != 0 {
		t.Error("empty plan should compile to an empty config")
	}
}

func TestCompileDeterministic(t *testing.T) {
	a := compileWorkedExample(t, true).String()
	b := compileWorkedExample(t, true).String()
	if a != b {
		t.Error("compilation not deterministic")
	}
}

func TestTopologyDiff(t *testing.T) {
	shared := compileWorkedExample(t, true)
	added, removed := topology.Diff(nil, shared)
	if len(added) != len(shared.Stores) || len(removed) != 0 {
		t.Errorf("Diff(nil, cfg) = %v added %v removed", added, removed)
	}
	added, removed = topology.Diff(shared, shared)
	if len(added) != 0 || len(removed) != 0 {
		t.Error("Diff(cfg, cfg) should be empty")
	}
}

// TestCompileRouteByAssignment pins the sound routing hints (DESIGN.md
// §6, deviation 11) on the three-way chain R(a) S(a,b) T(b): probes
// whose rule predicates link the target's partitioning attribute are
// keyed by exactly the linked sender attribute; probes without such a
// link (e.g. a T-tuple probing S[S.a] — T only carries S.b's value)
// broadcast.
func TestCompileRouteByAssignment(t *testing.T) {
	qs, _, err := query.ParseWorkload("q1: R(a) S(a,b) T(b)")
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimates(0.01)
	for _, r := range []string{"R", "S", "T"} {
		est.SetRate(r, 100)
	}
	plan, err := NewOptimizer(Options{StoreParallelism: 4, DisableMIRs: true}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Compile([]*Plan{plan}, CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	keyed, broadcast := 0, 0
	check := func(em topology.Emission) {
		if em.To == "" {
			return
		}
		target := cfg.Stores[em.To]
		rules := cfg.Rules[em.To][em.Edge]
		probeRules := 0
		for _, r := range rules {
			if r.Kind == topology.ProbeRule {
				probeRules++
			}
		}
		if probeRules == 0 {
			if em.RouteBy != "" {
				t.Errorf("insert emission to %s carries RouteBy %q", em.To, em.RouteBy)
			}
			return
		}
		if target.Partition == (query.Attr{}) {
			if em.RouteBy != "" {
				t.Errorf("emission to unpartitioned %s has RouteBy %q", em.To, em.RouteBy)
			}
			return
		}
		if em.RouteBy == "" {
			broadcast++
			return
		}
		keyed++
		// Invariant: for every probe rule on this edge, the RouteBy
		// attribute is a probe-side predicate attribute linked to the
		// partitioning attribute via that rule's preds plus the store's
		// internal preds.
		for _, r := range rules {
			if r.Kind != topology.ProbeRule {
				continue
			}
			restricted := append(append([]query.Predicate{}, r.Preds...), target.Preds...)
			classes := attrClasses(restricted)
			ok := false
			for _, p := range r.Preds {
				for _, a := range [2]query.Attr{p.Left, p.Right} {
					if a.Qualified() == em.RouteBy && sameClass(classes, a, target.Partition) {
						ok = true
					}
				}
			}
			if !ok {
				t.Errorf("emission to %s[%s] keyed by %q, not sound for rule preds %v",
					em.To, target.Partition, em.RouteBy, r.Preds)
			}
		}
	}
	for _, sp := range cfg.Spouts {
		for _, em := range sp.Out {
			check(em)
		}
	}
	for _, byEdge := range cfg.Rules {
		for _, rules := range byEdge {
			for _, r := range rules {
				for _, em := range r.Out {
					check(em)
				}
			}
		}
	}
	if keyed == 0 {
		t.Error("no keyed probe emissions — chain query must route R.a and S.b")
	}
	if broadcast == 0 {
		t.Error("no broadcast probe emissions — T probing S[a] must broadcast")
	}
}
