package ilp

import (
	"math"
	"reflect"
	"testing"

	"clash/internal/rng"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6  (min negated)
	// Best: a+c (weight 5, value 17) vs b+c (6, 20) vs a+b (7 infeasible).
	m := NewModel()
	a := m.AddBinary("a", -10)
	b := m.AddBinary("b", -13)
	c := m.AddBinary("c", -7)
	m.AddConstraint("cap", LE, 6, T(a, 3), T(b, 4), T(c, 2))
	sol := m.Solve(nil)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-20)) > 1e-6 {
		t.Errorf("obj = %g, want -20", sol.Objective)
	}
	if sol.IsOne(a) || !sol.IsOne(b) || !sol.IsOne(c) {
		t.Errorf("solution = %v, want b+c", sol.Values)
	}
}

func TestSetPartitioningChoice(t *testing.T) {
	// The CLASH shape: pick exactly one of three candidates; chosen
	// candidate forces its step variables; minimize step cost.
	m := NewModel()
	x1 := m.AddBinary("x1", 0)
	x2 := m.AddBinary("x2", 0)
	x3 := m.AddBinary("x3", 0)
	y1 := m.AddBinary("y1", 100)
	y2 := m.AddBinary("y2", 60)
	y3 := m.AddBinary("y3", 45)
	y4 := m.AddBinary("y4", 50)
	m.AddConstraint("choice", EQ, 1, T(x1, 1), T(x2, 1), T(x3, 1))
	// x1 needs y1; x2 needs y2+y3; x3 needs y3+y4.
	m.AddConstraint("c1", GE, 0, T(x1, -100), T(y1, 100))
	m.AddConstraint("c2", GE, 0, T(x2, -105), T(y2, 60), T(y3, 45))
	m.AddConstraint("c3", GE, 0, T(x3, -95), T(y3, 45), T(y4, 50))
	sol := m.Solve(nil)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-95) > 1e-6 {
		t.Errorf("obj = %g, want 95 (x3)", sol.Objective)
	}
	if !sol.IsOne(x3) {
		t.Errorf("want x3 chosen; got %v", sol.Values)
	}
}

func TestSharedStepsFavored(t *testing.T) {
	// Two groups; candidate pairs share step y3. Individually each group
	// would pick its private cheap step, but sharing wins globally.
	m := NewModel()
	a1 := m.AddBinary("a1", 0) // uses y1 (cost 50)
	a2 := m.AddBinary("a2", 0) // uses y3 (cost 60)
	b1 := m.AddBinary("b1", 0) // uses y2 (cost 50)
	b2 := m.AddBinary("b2", 0) // uses y3 (cost 60)
	y1 := m.AddBinary("y1", 50)
	y2 := m.AddBinary("y2", 50)
	y3 := m.AddBinary("y3", 60)
	m.AddConstraint("ga", EQ, 1, T(a1, 1), T(a2, 1))
	m.AddConstraint("gb", EQ, 1, T(b1, 1), T(b2, 1))
	m.AddConstraint("ca1", GE, 0, T(a1, -50), T(y1, 50))
	m.AddConstraint("ca2", GE, 0, T(a2, -60), T(y3, 60))
	m.AddConstraint("cb1", GE, 0, T(b1, -50), T(y2, 50))
	m.AddConstraint("cb2", GE, 0, T(b2, -60), T(y3, 60))
	sol := m.Solve(nil)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Shared: y3 once = 60 < y1+y2 = 100.
	if math.Abs(sol.Objective-60) > 1e-6 {
		t.Errorf("obj = %g, want 60 (share y3)", sol.Objective)
	}
	if !sol.IsOne(a2) || !sol.IsOne(b2) {
		t.Errorf("want shared candidates; got %v", sol.Values)
	}
}

func TestInfeasibleILP(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddConstraint("need2", GE, 2, T(x, 1), T(y, 1))
	m.AddConstraint("most1", LE, 1, T(x, 1), T(y, 1))
	sol := m.Solve(nil)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestEqualityPropagation(t *testing.T) {
	// Fixing by propagation alone: x=1 forced, then y forced to 0.
	m := NewModel()
	x := m.AddBinary("x", 5)
	y := m.AddBinary("y", 1)
	m.AddConstraint("fix", EQ, 1, T(x, 1))
	m.AddConstraint("excl", LE, 1, T(x, 1), T(y, 1))
	sol := m.Solve(nil)
	if sol.Status != Optimal || !sol.IsOne(x) || sol.IsOne(y) {
		t.Fatalf("sol = %+v", sol)
	}
	if sol.Objective != 5 {
		t.Errorf("obj = %g", sol.Objective)
	}
}

func TestAssignmentProblem(t *testing.T) {
	// 3x3 assignment, cost matrix with known optimum 5 (1+1+3... see below).
	cost := [3][3]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}
	// Optimal: (0,1)+(1,0)+(2,2) = 1+2+2 = 5.
	m := NewModel()
	var v [3][3]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v[i][j] = m.AddBinary("", cost[i][j])
		}
	}
	for i := 0; i < 3; i++ {
		m.AddConstraint("row", EQ, 1, T(v[i][0], 1), T(v[i][1], 1), T(v[i][2], 1))
		m.AddConstraint("col", EQ, 1, T(v[0][i], 1), T(v[1][i], 1), T(v[2][i], 1))
	}
	sol := m.Solve(nil)
	if sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 5", sol.Status, sol.Objective)
	}
}

// bruteForce enumerates all 0/1 assignments of a pure-binary model.
func bruteForce(m *Model) (float64, bool) {
	n := len(m.Vars)
	best := math.Inf(1)
	found := false
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = float64((mask >> i) & 1)
		}
		if m.Feasible(x, 1e-9) == nil {
			if obj := m.ObjectiveOf(x); obj < best {
				best = obj
				found = true
			}
		}
	}
	return best, found
}

func TestRandomModelsMatchBruteForce(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(8) // up to 11 binaries
		m := NewModel()
		for i := 0; i < n; i++ {
			m.AddBinary("", float64(r.Intn(21)-10))
		}
		nc := 1 + r.Intn(5)
		for c := 0; c < nc; c++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if r.Float64() < 0.5 {
					terms = append(terms, T(i, float64(r.Intn(9)-4)))
				}
			}
			if len(terms) == 0 {
				continue
			}
			rel := []Rel{LE, GE, EQ}[r.Intn(3)]
			rhs := float64(r.Intn(7) - 3)
			m.AddConstraint("", rel, rhs, terms...)
		}
		want, feasible := bruteForce(m)
		sol := m.Solve(nil)
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible, solver says %v\n%s", trial, sol.Status, m)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status = %v, want optimal\n%s", trial, sol.Status, m)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: obj = %g, brute force = %g\n%s", trial, sol.Objective, want, m)
		}
		if err := m.Feasible(sol.Values, 1e-6); err != nil {
			t.Fatalf("trial %d: solution infeasible: %v", trial, err)
		}
	}
}

func TestRandomModelsNoLP(t *testing.T) {
	// Same cross-check on models with non-negative coefficients only.
	r := rng.New(77)
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(7)
		m := NewModel()
		for i := 0; i < n; i++ {
			m.AddBinary("", float64(r.Intn(15)))
		}
		for c := 0; c < 1+r.Intn(4); c++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if r.Float64() < 0.6 {
					terms = append(terms, T(i, float64(1+r.Intn(4))))
				}
			}
			if len(terms) == 0 {
				continue
			}
			rel := []Rel{LE, GE, EQ}[r.Intn(3)]
			m.AddConstraint("", rel, float64(r.Intn(6)), terms...)
		}
		want, feasible := bruteForce(m)
		sol := m.Solve(nil)
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: want infeasible, got %v", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: got %v %g, want optimal %g\n%s", trial, sol.Status, sol.Objective, want, m)
		}
	}
}

// TestEmptyRows pins that a row whose terms all cancel still binds: 0
// must satisfy it, however many components the rest of the model splits
// into.
func TestEmptyRows(t *testing.T) {
	for _, comps := range []int{1, 2} {
		for _, row := range []struct {
			rel Rel
			rhs float64
		}{{LE, -1}, {GE, 1}, {EQ, 2}, {LE, 0}, {EQ, 0}} {
			m := NewModel()
			for c := 0; c < comps; c++ {
				x, y := m.AddBinary("", float64(1+c)), m.AddBinary("", float64(2-3*c))
				m.AddConstraint("", GE, 1, T(x, 1), T(y, 1))
			}
			m.AddConstraint("empty", row.rel, row.rhs, T(0, 1), T(0, -1))
			if len(m.Cons[len(m.Cons)-1].Terms) != 0 || len(components(m)) != comps {
				t.Fatalf("%d components, 0 %v %g: the model is not what the case names", comps, row.rel, row.rhs)
			}
			want, feasible := bruteForce(m)
			sol := m.Solve(nil)
			switch {
			case !feasible && sol.Status != Infeasible:
				t.Errorf("%d components, 0 %v %g: status %v, want infeasible", comps, row.rel, row.rhs, sol.Status)
			case feasible && (sol.Status != Optimal || sol.Objective != want):
				t.Errorf("%d components, 0 %v %g: %v at %g, want optimal at %g", comps, row.rel, row.rhs, sol.Status, sol.Objective, want)
			case feasible:
				if err := m.Feasible(sol.Values, 1e-9); err != nil {
					t.Errorf("%d components, 0 %v %g: %v", comps, row.rel, row.rhs, err)
				}
			}
		}
	}
}

func TestNodeLimit(t *testing.T) {
	// A model the solver cannot finish in 1 node still reports Limit.
	m := NewModel()
	n := 14
	var terms []Term
	for i := 0; i < n; i++ {
		v := m.AddBinary("", float64(i%3+1))
		terms = append(terms, T(v, float64(1+i%4)))
	}
	m.AddConstraint("", EQ, 7, terms...)
	sol := m.Solve(&Options{MaxNodes: 1})
	if sol.Status != Limit {
		t.Fatalf("status = %v, want limit", sol.Status)
	}
	// A capped search reports the nodes it explored, never the one it
	// refused: at most MaxNodes, whatever the budget. The budget is per
	// independent component, so a decomposed model may spend one per
	// component.
	r := rng.New(31)
	capped := 0
	for trial := 0; trial < 40; trial++ {
		m := buildClashShaped(r)
		comps := len(components(m))
		for _, budget := range []int{1, 2, 7, 50, 300} {
			o := Options{MaxNodes: budget}
			if sol := m.Solve(&o); sol.NodesExplored() > comps*budget {
				t.Fatalf("trial %d: %d nodes explored in %d components under MaxNodes %d", trial, sol.NodesExplored(), comps, budget)
			}
			o.fill()
			sol := solveOne(m, o)
			if sol.NodesExplored() > budget {
				t.Fatalf("trial %d: %d nodes explored in one search under MaxNodes %d", trial, sol.NodesExplored(), budget)
			}
			if sol.Status == Limit {
				capped++
			}
		}
	}
	if capped == 0 {
		t.Fatal("no solve hit its node budget: the test is vacuous")
	}
}

func TestModelValidation(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("constraint referencing unknown var should panic")
			}
		}()
		m.AddConstraint("bad", LE, 1, T(x+5, 1))
	}()
}

func TestDuplicateTermsMerge(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", -1)
	m.AddConstraint("dup", LE, 1, T(x, 1), T(x, 1)) // 2x <= 1 -> x = 0
	sol := m.Solve(nil)
	if sol.Status != Optimal || sol.IsOne(x) {
		t.Fatalf("merged coefficient not honored: %+v", sol)
	}

	// Terms come out sorted by variable, each variable's coefficients
	// summed in the order given, cancelled ones dropped.
	y, z := m.AddBinary("y", 0), m.AddBinary("z", 0)
	z1, z2 := 0.1, 0.2 // summed at run time: 0.30000000000000004
	m.AddConstraint("mixed", LE, 1, T(z, z1), T(y, 2), T(x, 1), T(y, -2), T(z, z2), T(x, 0.5))
	got := m.Cons[len(m.Cons)-1].Terms
	want := []Term{{Var: x, Coeff: 1.5}, {Var: z, Coeff: z1 + z2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged terms %+v, want %+v", got, want)
	}
}

func TestModelString(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 2)
	m.AddConstraint("c", GE, 1, T(x, 1))
	s := m.String()
	if s == "" {
		t.Error("String empty")
	}
}

func TestSolutionHelpers(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", -1)
	sol := m.Solve(nil)
	if sol.Status != Optimal || !sol.IsOne(x) || sol.Value(x) != 1 {
		t.Fatalf("free negative-cost binary should be 1: %+v", sol)
	}
}
