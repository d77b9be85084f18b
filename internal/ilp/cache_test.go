package ilp

import (
	"math"
	"testing"

	"clash/internal/rng"
)

// twoComponentModel builds two disjoint choice groups (independent ILP
// components). scale multiplies the second group's costs so tests can
// change one component while the other stays byte-identical.
func twoComponentModel(scale float64) *Model {
	m := NewModel()
	group := func(costs []float64) {
		var terms []Term
		for _, c := range costs {
			y := m.AddBinary("y", c)
			x := m.AddBinary("x", 0)
			m.AddConstraint("cost", GE, 0, T(x, -1), T(y, 1))
			terms = append(terms, T(x, 1))
		}
		m.AddConstraint("choice", EQ, 1, terms...)
	}
	group([]float64{5, 3, 9})
	group([]float64{2 * scale, 7 * scale, 4 * scale})
	return m
}

func TestSolutionCacheAnswersUnchangedComponents(t *testing.T) {
	cache := NewSolutionCache(4)
	m := twoComponentModel(1)

	a := m.Solve(&Options{Cache: cache})
	if a.Status != Optimal {
		t.Fatalf("status = %v", a.Status)
	}
	if a.CacheHits != 0 || a.CacheMisses != 2 {
		t.Fatalf("first solve: hits=%d misses=%d, want 0/2", a.CacheHits, a.CacheMisses)
	}

	b := m.Solve(&Options{Cache: cache})
	if b.CacheHits != 2 || b.CacheMisses != 0 {
		t.Fatalf("second solve: hits=%d misses=%d, want 2/0", b.CacheHits, b.CacheMisses)
	}
	if b.NodesExplored() != 0 {
		t.Fatalf("cached solve explored %d nodes, want 0", b.NodesExplored())
	}
	if math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Fatalf("objective %g vs cached %g", a.Objective, b.Objective)
	}
	if err := m.Feasible(b.Values, 1e-9); err != nil {
		t.Fatalf("cached solution infeasible: %v", err)
	}

	// Change one component: the other still answers from cache.
	m2 := twoComponentModel(3)
	c := m2.Solve(&Options{Cache: cache})
	if c.Status != Optimal {
		t.Fatalf("status = %v", c.Status)
	}
	if c.CacheHits != 1 || c.CacheMisses != 1 {
		t.Fatalf("changed solve: hits=%d misses=%d, want 1/1", c.CacheHits, c.CacheMisses)
	}
	if math.Abs(c.Objective-(3+2*3)) > 1e-9 {
		t.Fatalf("objective %g, want %g", c.Objective, 3+2*3.0)
	}
}

func TestSolutionCacheEviction(t *testing.T) {
	cache := NewSolutionCache(2)
	m := twoComponentModel(1)
	m.Solve(&Options{Cache: cache})
	if cache.Stats().Entries != 2 {
		t.Fatalf("entries = %d, want 2", cache.Stats().Entries)
	}
	// Within the retention window the entries survive...
	cache.Advance()
	m2 := twoComponentModel(1)
	if sol := m2.Solve(&Options{Cache: cache}); sol.CacheHits != 2 {
		t.Fatalf("hits after 1 advance = %d, want 2", sol.CacheHits)
	}
	// ...and far past it they are evicted.
	for i := 0; i < 5; i++ {
		cache.Advance()
	}
	if got := cache.Stats().Entries; got != 0 {
		t.Fatalf("entries after eviction = %d, want 0", got)
	}
}

// TestCachedSolveMatchesFresh cross-checks cached component answers
// against fresh solves over random clash-shaped models: caching must
// never change the reported optimum.
func TestCachedSolveMatchesFresh(t *testing.T) {
	r := rng.New(90210)
	cache := NewSolutionCache(8)
	for trial := 0; trial < 60; trial++ {
		m := buildClashShaped(r)
		fresh := m.Solve(nil)
		cached := m.Solve(&Options{Cache: cache})
		again := m.Solve(&Options{Cache: cache})
		if fresh.Status != cached.Status || fresh.Status != again.Status {
			t.Fatalf("trial %d: status %v / %v / %v", trial, fresh.Status, cached.Status, again.Status)
		}
		if fresh.Status != Optimal {
			continue
		}
		if math.Abs(fresh.Objective-cached.Objective) > 1e-6 ||
			math.Abs(fresh.Objective-again.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective fresh %g cached %g again %g",
				trial, fresh.Objective, cached.Objective, again.Objective)
		}
		if err := m.Feasible(again.Values, 1e-6); err != nil {
			t.Fatalf("trial %d: cached values infeasible: %v", trial, err)
		}
		cache.Advance()
	}
}

// cappedKnapsack is a model the solver cannot finish under a small node
// budget but for which a truncated search still carries an incumbent.
func cappedKnapsack() *Model {
	m := NewModel()
	var terms []Term
	for i := 0; i < 14; i++ {
		v := m.AddBinary("", float64(i%3+1))
		terms = append(terms, T(v, float64(1+i%4)))
	}
	m.AddConstraint("", EQ, 7, terms...)
	return m
}

// TestSolutionCacheSkipsCappedComponents pins that only Optimal
// component solutions are cached: a node-capped (Limit) incumbent is
// never served, so a repeated capped solve searches again, and an
// uncapped solve after a capped one finds the true optimum.
func TestSolutionCacheSkipsCappedComponents(t *testing.T) {
	m := cappedKnapsack()
	cache := NewSolutionCache(4)
	first := m.Solve(&Options{MaxNodes: 5, LPCellLimit: 1, Cache: cache})
	if first.Status != Limit || first.Values == nil {
		t.Fatalf("capped solve: status %v, values-nil %v — model no longer exercises the cap",
			first.Status, first.Values == nil)
	}
	if n := cache.Stats().Entries; n != 0 {
		t.Fatalf("a capped solve left %d cache entries, want 0", n)
	}
	again := m.Solve(&Options{MaxNodes: 5, LPCellLimit: 1, Cache: cache})
	if again.CacheHits != 0 || again.NodesExplored() == 0 {
		t.Fatalf("repeated capped solve: hits %d, nodes %d — a Limit incumbent was served", again.CacheHits, again.NodesExplored())
	}
	if again.Objective != first.Objective {
		t.Fatalf("repeated capped solve %g, first %g", again.Objective, first.Objective)
	}

	full := m.Solve(&Options{LPCellLimit: 1})
	if full.Status != Optimal {
		t.Fatalf("uncapped solve status %v, want optimal", full.Status)
	}
	exact := m.Solve(&Options{LPCellLimit: 1, Cache: cache})
	if exact.Status != Optimal || exact.CacheHits != 0 || exact.Objective != full.Objective {
		t.Fatalf("uncapped solve after a capped one: %v %g (hits %d), want optimal %g",
			exact.Status, exact.Objective, exact.CacheHits, full.Objective)
	}
}
