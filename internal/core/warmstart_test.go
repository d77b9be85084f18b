package core

import (
	"testing"

	"clash/internal/ilp"
	"clash/internal/workload"
)

func TestWarmStartFeasibleAndBounding(t *testing.T) {
	// In the paper's formulation (no cross-query partition-consistency
	// rows) the warm start must be feasible and never worse than the
	// summed per-query optima, so MQO results can only improve on the
	// Individual baseline even when a solver budget cuts the search
	// short. (With the strengthened consistency rows MQO may
	// legitimately exceed the Individual sum: independent deployments
	// partition their private stores freely, a shared store must
	// compromise.)
	env := workload.NewEnv(10, 100)
	qs := env.RandomQueries(15, 3, 3)
	est := env.Estimates()
	opts := Options{StoreParallelism: 4, NoPartitionConsistency: true,
		DeterministicWarmStart: true, Solver: ilp.Options{MaxNodes: 20_000}}
	b := newBuilder(opts, qs, est)
	b.enumerateMIRs()
	if err := b.generateCandidates(); err != nil {
		t.Fatal(err)
	}
	b.buildModel()

	ws := b.warmStart()
	if ws == nil {
		t.Fatal("no warm start produced")
	}
	if err := b.model.Feasible(ws, 1e-5); err != nil {
		t.Fatalf("warm start infeasible: %v", err)
	}
	wsObj := b.model.ObjectiveOf(ws)

	indiv, err := NewOptimizer(opts).IndividualCost(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	if wsObj > indiv+1e-6 {
		t.Errorf("warm start %g worse than individual sum %g", wsObj, indiv)
	}

	// And the full solve can only improve on the warm start.
	plan, err := NewOptimizer(opts).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective > wsObj+1e-6 {
		t.Errorf("MQO %g worse than its own warm start %g", plan.Objective, wsObj)
	}

	// The strict mode still produces a feasible warm start.
	strict := newBuilder(Options{StoreParallelism: 4, DeterministicWarmStart: true}, qs, est)
	strict.enumerateMIRs()
	if err := strict.generateCandidates(); err != nil {
		t.Fatal(err)
	}
	strict.buildModel()
	if ws := strict.warmStart(); ws != nil {
		if err := strict.model.Feasible(ws, 1e-5); err != nil {
			t.Errorf("strict warm start infeasible: %v", err)
		}
	}
}

func TestLocalSearchFindsSharing(t *testing.T) {
	// Heavily shared regime (many 3-relation queries over few inputs):
	// coordinate descent must produce a feasible assignment at least as
	// good as both single-pass greedy variants, and materially better
	// than the Individual baseline — this is the Fig. 9a savings signal.
	env := workload.NewEnv(10, 100)
	qs := env.RandomQueries(20, 3, 1)
	est := env.Estimates()
	opts := Options{StoreParallelism: 4, NoPartitionConsistency: true,
		Solver: ilp.Options{MaxNodes: 20_000}}
	b := newBuilder(opts, qs, est)
	b.enumerateMIRs()
	if err := b.generateCandidates(); err != nil {
		t.Fatal(err)
	}
	b.buildModel()

	ls := b.warmStartLocalSearch()
	if ls == nil {
		t.Fatal("local search produced nothing")
	}
	if err := b.model.Feasible(ls, 1e-5); err != nil {
		t.Fatalf("local-search solution infeasible: %v", err)
	}
	lsObj := b.model.ObjectiveOf(ls)

	for _, marginal := range []bool{true, false} {
		if g := b.warmStartWith(marginal); g != nil {
			if gObj := b.model.ObjectiveOf(g); lsObj > gObj+1e-6 {
				t.Errorf("local search %g worse than greedy(marginal=%v) %g", lsObj, marginal, gObj)
			}
		}
	}

	indiv, err := NewOptimizer(opts).IndividualCost(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	if savings := 1 - lsObj/indiv; savings < 0.15 {
		t.Errorf("local search found only %.1f%% sharing savings over Individual (%g vs %g)",
			savings*100, lsObj, indiv)
	}
}

func TestLocalSearchStrictModeFeasible(t *testing.T) {
	// With partition-consistency rows the search must respect z-commit
	// compatibility; whatever it returns must be feasible.
	env := workload.NewEnv(8, 100)
	qs := env.RandomQueries(10, 3, 2)
	est := env.Estimates()
	b := newBuilder(Options{StoreParallelism: 4}, qs, est)
	b.enumerateMIRs()
	if err := b.generateCandidates(); err != nil {
		t.Fatal(err)
	}
	b.buildModel()
	if ls := b.warmStartLocalSearch(); ls != nil {
		if err := b.model.Feasible(ls, 1e-5); err != nil {
			t.Errorf("strict-mode local search infeasible: %v", err)
		}
	}
}

func TestNoPartitionConsistencyMode(t *testing.T) {
	qs, est := workedExample()
	strict, err := NewOptimizer(Options{StoreParallelism: 4}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := NewOptimizer(Options{StoreParallelism: 4, NoPartitionConsistency: true}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping constraints can only lower (or keep) the optimum.
	if loose.Objective > strict.Objective+1e-6 {
		t.Errorf("paper formulation %g worse than strengthened %g",
			loose.Objective, strict.Objective)
	}
	if loose.Stats.Constraints >= strict.Stats.Constraints {
		t.Errorf("z-rows not dropped: %d vs %d constraints",
			loose.Stats.Constraints, strict.Stats.Constraints)
	}
}
