package sim

import (
	"testing"

	"clash/internal/cluster"
	"clash/internal/core"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// clusterKeyedBase is the fully keyed workload: every relation routes by
// its join attribute (one shared equivalence class a across q1 and q2).
func clusterKeyedBase() ClusterScenario {
	return ClusterScenario{Scenario: Scenario{
		Workload: "q1: R(a) S(a)\nq2: S(a) T(a)",
		Options:  core.Options{StoreParallelism: 2},
		Window:   40,
		Stream:   StreamConfig{Tuples: 240, Keys: 5},
		StepMode: true,
	}}
}

func sweepSeeds(t *testing.T, full int) int {
	if testing.Short() {
		return 2
	}
	return full
}

// TestClusterSweepKeyed: the ISSUE's core acceptance — seeded runs on
// N in {1,2,4} shards and both state backends, each byte-compared
// against the single-engine oracle.
func TestClusterSweepKeyed(t *testing.T) {
	base := clusterKeyedBase()

	// Vacuity: the plan must actually hash-route every relation.
	res, err := base.RunCluster()
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"R", "S", "T"} {
		if !res.Plan.Relations[rel].Keyed() {
			t.Fatalf("relation %s not keyed — sweep would test broadcast only", rel)
		}
	}
	if len(res.Plan.OwnerOnly) != 0 {
		t.Fatalf("unexpected owner-only queries %v in a fully keyed plan", res.Plan.OwnerOnly)
	}

	seeds := sweepSeeds(t, 16)
	runs, err := ClusterSweep(base, seeds, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := seeds * 3 * 3; runs != want {
		t.Errorf("verified %d runs, want %d", runs, want)
	}
}

// TestClusterSweepBroadcastChain: the multi-hop chain workload has no
// equivalence class connecting all of a query's relations, so every
// relation broadcasts and each query's results are deduplicated by the
// owner filter. Exactness must still hold byte for byte.
func TestClusterSweepBroadcastChain(t *testing.T) {
	b := base()
	b.Stream.Tuples = 200
	cs := ClusterScenario{Scenario: b}

	res, err := cs.RunCluster()
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"R", "S", "T", "U"} {
		if res.Plan.Relations[rel].Keyed() {
			t.Fatalf("relation %s keyed — chain workload should broadcast", rel)
		}
	}
	if len(res.Plan.OwnerOnly) != 2 {
		t.Fatalf("OwnerOnly = %v, want both chain queries owner-filtered", res.Plan.OwnerOnly)
	}

	seeds := sweepSeeds(t, 6)
	runs, err := ClusterSweep(cs, seeds, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := seeds * 2 * 3; runs != want {
		t.Errorf("verified %d runs, want %d", runs, want)
	}
}

// TestClusterSweepMixedConflict: R joins q1 on a and q2 on b — the
// routing-attribute conflict forces R to broadcast while S and T stay
// keyed. The mixed placement must remain exact.
func TestClusterSweepMixedConflict(t *testing.T) {
	cs := ClusterScenario{Scenario: Scenario{
		Workload: "q1: R(a,b) S(a)\nq2: R(a,b) T(b)",
		Options:  core.Options{StoreParallelism: 2},
		Window:   40,
		Stream:   StreamConfig{Tuples: 240, Keys: 5},
		StepMode: true,
	}}

	res, err := cs.RunCluster()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Relations["R"].Keyed() {
		t.Fatal("R keyed despite conflicting routing attributes across queries")
	}
	if !res.Plan.Relations["S"].Keyed() || !res.Plan.Relations["T"].Keyed() {
		t.Fatal("S/T should stay keyed when only R conflicts")
	}
	if len(res.Plan.OwnerOnly) != 0 {
		t.Fatalf("OwnerOnly = %v; queries with keyed relations must not be owner-filtered", res.Plan.OwnerOnly)
	}

	seeds := sweepSeeds(t, 6)
	runs, err := ClusterSweep(cs, seeds, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := seeds * 2 * 3; runs != want {
		t.Errorf("verified %d runs, want %d", runs, want)
	}
}

// TestClusterSweepDegreeAware: degree sketches declare key 0 a heavy
// hitter, so the router spreads the driving relation's hot tuples over
// two candidate shards and replicates the partners' — the engine's
// split-key rule one level up (the engines split the same key, optimized
// from the same estimates). Replication must not cost exactness.
func TestClusterSweepDegreeAware(t *testing.T) {
	est := stats.NewEstimates(0.1)
	for _, r := range []string{"R", "S", "T"} {
		est.SetRate(r, 100)
		est.SetDegree(r+".a", &stats.AttrDegrees{
			Count:    100000,
			Distinct: 14,
			Top:      []stats.HeavyHitter{{Hash: tuple.IntValue(0).Hash(), Count: 75000}},
		})
	}
	base := clusterKeyedBase()
	base.Estimates = est

	// Vacuity: the router must actually split, and a run must actually
	// replicate hot partner tuples.
	base.Shards = 2
	res, err := base.RunCluster()
	if err != nil {
		t.Fatal(err)
	}
	if cluster.NewRouter(res.Plan, est).Splits() == 0 {
		t.Fatal("degree estimates produced no split hashes — sweep vacuous")
	}
	if res.Metrics.ReplicaTuples == 0 {
		t.Fatal("no replica placements — degree-aware path untested")
	}
	if err := res.VerifyExact(); err != nil {
		t.Fatal(err)
	}

	seeds := sweepSeeds(t, 8)
	base.Shards = 0
	runs, err := ClusterSweep(base, seeds, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := seeds * 2 * 3; runs != want {
		t.Errorf("verified %d runs, want %d", runs, want)
	}
}

// TestClusterSweepTwoClassesHotKey: two join classes (q1 on a, q2 on b)
// whose streams share int key 0. A key hot in one class must hash plainly
// in the other — were U and V treated as partners of class a's hot key,
// they would replicate and q2's results would materialize twice. With the
// key hot in both classes, each class splits it over its own driving
// relation.
func TestClusterSweepTwoClassesHotKey(t *testing.T) {
	hot := func(attrs ...string) *stats.Estimates {
		est := stats.NewEstimates(0.1)
		for _, r := range []string{"R", "S", "U", "V"} {
			est.SetRate(r, 100)
		}
		for _, a := range attrs {
			est.SetDegree(a, &stats.AttrDegrees{
				Count:    100000,
				Distinct: 14,
				Top:      []stats.HeavyHitter{{Hash: tuple.IntValue(0).Hash(), Count: 75000}},
			})
		}
		return est
	}
	for _, tc := range []struct {
		name   string
		est    *stats.Estimates
		splits int
	}{
		{"hot-in-a", hot("R.a", "S.a"), 1},
		{"hot-in-both", hot("R.a", "S.a", "U.b", "V.b"), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := ClusterScenario{Scenario: Scenario{
				Workload:  "q1: R(a) S(a)\nq2: U(b) V(b)",
				Options:   core.Options{StoreParallelism: 2},
				Window:    40,
				Stream:    StreamConfig{Tuples: 320, Keys: 5},
				StepMode:  true,
				Estimates: tc.est,
			}}
			res, err := cs.RunCluster()
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range []string{"R", "S", "U", "V"} {
				if !res.Plan.Relations[rel].Keyed() {
					t.Fatalf("relation %s not keyed", rel)
				}
			}
			if s := cluster.NewRouter(res.Plan, tc.est).Splits(); s != tc.splits {
				t.Fatalf("router splits %d hot hashes, want %d", s, tc.splits)
			}
			if res.Metrics.ReplicaTuples == 0 {
				t.Fatal("no replica placements — split path untested")
			}
			if err := res.VerifyExact(); err != nil {
				t.Fatal(err)
			}
			seeds := sweepSeeds(t, 6)
			runs, err := ClusterSweep(cs, seeds, []int{2, 4})
			if err != nil {
				t.Fatal(err)
			}
			if want := seeds * 2 * 3; runs != want {
				t.Errorf("verified %d runs, want %d", runs, want)
			}
		})
	}
}
