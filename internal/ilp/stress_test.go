package ilp

import (
	"math"
	"testing"

	"clash/internal/rng"
)

// buildClashShaped builds a random model with the exact row structure the
// CLASH optimizer emits: per-group choice rows (Σx = 1), cost rows
// (-x + Σ (c_i/C) y_i ≥ 0), feeding rows (-x + Σ x' ≥ 0), partition
// links (z - x ≥ 0) and one-partition rows (Σz ≤ 1).
func buildClashShaped(r *rng.RNG) *Model {
	m := NewModel()
	nSteps := 3 + r.Intn(5)
	ys := make([]int, nSteps)
	costs := make([]float64, nSteps)
	for i := range ys {
		costs[i] = float64(10 + r.Intn(200))
		ys[i] = m.AddBinary("y", costs[i])
	}
	nz := 2 + r.Intn(3)
	zs := make([]int, nz)
	for i := range zs {
		zs[i] = m.AddBinary("z", 0)
	}
	// Two z-groups sharing the pool.
	half := nz / 2
	var g1, g2 []Term
	for i, z := range zs {
		if i < half {
			g1 = append(g1, T(z, 1))
		} else {
			g2 = append(g2, T(z, 1))
		}
	}
	if len(g1) > 0 {
		m.AddConstraint("onepart1", LE, 1, g1...)
	}
	if len(g2) > 0 {
		m.AddConstraint("onepart2", LE, 1, g2...)
	}

	nGroups := 2 + r.Intn(3)
	var feeders []int
	for g := 0; g < nGroups; g++ {
		k := 2 + r.Intn(3)
		var choice []Term
		for c := 0; c < k; c++ {
			x := m.AddBinary("x", 0)
			choice = append(choice, T(x, 1))
			// Cost row over 1-3 random steps.
			ns := 1 + r.Intn(3)
			total := 0.0
			var terms []Term
			seen := map[int]bool{}
			for s := 0; s < ns; s++ {
				yi := r.Intn(nSteps)
				if seen[yi] {
					continue
				}
				seen[yi] = true
				total += costs[yi]
				terms = append(terms, T(ys[yi], costs[yi]))
			}
			if total > 0 {
				row := []Term{T(x, -1)}
				for _, tm := range terms {
					row = append(row, T(tm.Var, tm.Coeff/total))
				}
				m.AddConstraint("cost", GE, 0, row...)
			}
			// Partition link with probability.
			if r.Float64() < 0.5 {
				z := zs[r.Intn(nz)]
				m.AddConstraint("link", GE, 0, T(z, 1), T(x, -1))
			}
			// Feeding row occasionally.
			if r.Float64() < 0.3 && len(feeders) > 0 {
				row := []Term{T(x, -1)}
				for _, f := range feeders {
					row = append(row, T(f, 1))
				}
				m.AddConstraint("feed", GE, 0, row...)
			}
		}
		m.AddConstraint("choice", EQ, 1, choice...)
		// This group's xs can feed later groups.
		if r.Float64() < 0.5 {
			feeders = nil
			for _, tm := range choice {
				feeders = append(feeders, tm.Var)
			}
		}
	}
	return m
}

// permute returns an equivalent model with variables in a shuffled order.
func permute(m *Model, r *rng.RNG) (*Model, []int) {
	n := len(m.Vars)
	perm := r.Perm(n) // perm[old] = new
	out := NewModel()
	inv := make([]int, n)
	for old, nw := range perm {
		inv[nw] = old
	}
	for _, old := range inv {
		out.AddBinary(m.Vars[old].Name, m.Vars[old].Obj)
	}
	for _, c := range m.Cons {
		terms := make([]Term, len(c.Terms))
		for i, t := range c.Terms {
			terms[i] = T(perm[t.Var], t.Coeff)
		}
		out.AddConstraint(c.Name, c.Rel, c.RHS, terms...)
	}
	return out, perm
}

// TestNodeBudgetDeterministic pins the deterministic accounting the
// churn benchmarks rely on: under a node budget the explored-node count,
// status, and objective are identical across repeated solves of the
// same model.
func TestNodeBudgetDeterministic(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 40; trial++ {
		m := buildClashShaped(r)
		for _, opt := range []Options{
			{MaxNodes: 50},
			{MaxNodes: 5000},
		} {
			o1, o2 := opt, opt
			a := m.Solve(&o1)
			b := m.Solve(&o2)
			if a.Nodes != b.Nodes {
				t.Fatalf("trial %d: nodes %d vs %d across identical solves",
					trial, a.Nodes, b.Nodes)
			}
			if a.Status != b.Status {
				t.Fatalf("trial %d: status %v vs %v", trial, a.Status, b.Status)
			}
			if a.Values != nil && b.Values != nil && math.Abs(a.Objective-b.Objective) > 1e-9 {
				t.Fatalf("trial %d: objective %g vs %g", trial, a.Objective, b.Objective)
			}
		}
	}
}

func TestClashShapedModelsStress(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 20
	}
	r := rng.New(31337)
	for trial := 0; trial < trials; trial++ {
		m := buildClashShaped(r)
		if len(m.Vars) > 18 {
			continue // keep brute force tractable
		}
		want, feasible := bruteForce(m)
		for variant := 0; variant < 3; variant++ {
			mm := m
			if variant > 0 {
				mm, _ = permute(m, r)
			}
			sol := mm.Solve(nil)
			if !feasible {
				if sol.Status != Infeasible {
					t.Fatalf("trial %d/%d: want infeasible, got %v\n%s", trial, variant, sol.Status, mm)
				}
				continue
			}
			if sol.Status != Optimal {
				t.Fatalf("trial %d/%d: status %v, want optimal\n%s", trial, variant, sol.Status, mm)
			}
			if math.Abs(sol.Objective-want) > 1e-6 {
				t.Fatalf("trial %d/%d: obj %g, brute force %g\n%s", trial, variant, sol.Objective, want, mm)
			}
		}
	}
}
