package ilp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"clash/internal/rng"
)

// lpSolve solves the model's LP under its own bounds; like every LP in
// this file, it is checked against the dense reference.
func lpSolve(t *testing.T, m *Model) lpResult {
	t.Helper()
	lo, hi := modelBounds(m)
	return solveBoth(t, "model bounds", new(simplex), m, lo, hi, 50000)
}

func modelBounds(m *Model) (lo, hi []float64) {
	lo = make([]float64, len(m.Vars))
	hi = make([]float64, len(m.Vars))
	for i, v := range m.Vars {
		lo[i], hi[i] = v.Lower, v.Upper
	}
	return lo, hi
}

// solveBoth solves the LP on s and with the dense reference
// (lp_ref_test.go) and fails unless the two agree bit for bit.
func solveBoth(t testing.TB, what string, s *simplex, m *Model, lo, hi []float64, maxIter int) lpResult {
	t.Helper()
	got := s.solve(m, lo, hi, maxIter)
	want := refSolveLP(m, lo, hi, maxIter, false)
	if got.status != want.status || got.iters != want.iters {
		t.Fatalf("%s: %v after %d iterations, the dense reference %v after %d", what, got.status, got.iters, want.status, want.iters)
	}
	if math.Float64bits(got.obj) != math.Float64bits(want.obj) {
		t.Fatalf("%s: objective %b, the dense reference %b", what, got.obj, want.obj)
	}
	if len(got.x) != len(want.x) {
		t.Fatalf("%s: %d values, the dense reference %d", what, len(got.x), len(want.x))
	}
	for i := range got.x {
		if math.Float64bits(got.x[i]) != math.Float64bits(want.x[i]) {
			t.Fatalf("%s: x[%d] = %b, the dense reference %b", what, i, got.x[i], want.x[i])
		}
	}
	return got
}

func TestLPSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x+3y <= 6, x,y in [0, 10].
	// As minimization: min -3x - 2y. Optimum at (4, 0): obj -12.
	m := NewModel()
	x := m.AddContinuous("x", 0, 10, -3)
	y := m.AddContinuous("y", 0, 10, -2)
	m.AddConstraint("c1", LE, 4, T(x, 1), T(y, 1))
	m.AddConstraint("c2", LE, 6, T(x, 1), T(y, 3))
	r := lpSolve(t, m)
	if r.status != Optimal {
		t.Fatalf("status = %v", r.status)
	}
	if math.Abs(r.obj-(-12)) > 1e-6 {
		t.Errorf("obj = %g, want -12 (x=%g y=%g)", r.obj, r.x[x], r.x[y])
	}
}

func TestLPEquality(t *testing.T) {
	// min x + 2y s.t. x + y = 3, x,y >= 0. Optimum (3,0), obj 3.
	m := NewModel()
	x := m.AddContinuous("x", 0, 100, 1)
	y := m.AddContinuous("y", 0, 100, 2)
	m.AddConstraint("sum", EQ, 3, T(x, 1), T(y, 1))
	r := lpSolve(t, m)
	if r.status != Optimal || math.Abs(r.obj-3) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 3", r.status, r.obj)
	}
	if math.Abs(r.x[x]-3) > 1e-6 {
		t.Errorf("x = %g, want 3", r.x[x])
	}
}

func TestLPGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x >= 1. Optimum (4, 0): obj 8.
	m := NewModel()
	x := m.AddContinuous("x", 1, 1000, 2)
	y := m.AddContinuous("y", 0, 1000, 3)
	m.AddConstraint("cover", GE, 4, T(x, 1), T(y, 1))
	r := lpSolve(t, m)
	if r.status != Optimal || math.Abs(r.obj-8) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 8", r.status, r.obj)
	}
}

func TestLPUpperBoundsRespected(t *testing.T) {
	// min -x - y s.t. x + y <= 10, x <= 2, y <= 3 via variable bounds.
	// Optimum (2, 3): obj -5. Exercises nonbasic-at-upper handling.
	m := NewModel()
	x := m.AddContinuous("x", 0, 2, -1)
	y := m.AddContinuous("y", 0, 3, -1)
	m.AddConstraint("c", LE, 10, T(x, 1), T(y, 1))
	r := lpSolve(t, m)
	if r.status != Optimal || math.Abs(r.obj-(-5)) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal -5", r.status, r.obj)
	}
	if math.Abs(r.x[x]-2) > 1e-6 || math.Abs(r.x[y]-3) > 1e-6 {
		t.Errorf("solution (%g, %g), want (2, 3)", r.x[x], r.x[y])
	}
}

func TestLPShiftedLowerBounds(t *testing.T) {
	// min x + y s.t. x + y >= 5, x in [2, 10], y in [1, 10].
	// Optimum obj 5 with x+y = 5 (e.g. x=4,y=1 or x=2,y=3).
	m := NewModel()
	x := m.AddContinuous("x", 2, 10, 1)
	y := m.AddContinuous("y", 1, 10, 1)
	m.AddConstraint("c", GE, 5, T(x, 1), T(y, 1))
	r := lpSolve(t, m)
	if r.status != Optimal || math.Abs(r.obj-5) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 5", r.status, r.obj)
	}
	if r.x[x] < 2-1e-9 || r.x[y] < 1-1e-9 {
		t.Errorf("lower bounds violated: (%g, %g)", r.x[x], r.x[y])
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 1, 1)
	m.AddConstraint("impossible", GE, 5, T(x, 1))
	r := lpSolve(t, m)
	if r.status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.status)
	}
}

func TestLPInfeasibleEquality(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 10, 1)
	y := m.AddContinuous("y", 0, 10, 1)
	m.AddConstraint("a", EQ, 3, T(x, 1), T(y, 1))
	m.AddConstraint("b", EQ, 8, T(x, 1), T(y, 1))
	r := lpSolve(t, m)
	if r.status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.status)
	}
}

func TestLPUnbounded(t *testing.T) {
	// min -x with x unbounded above.
	m := NewModel()
	x := m.AddContinuous("x", 0, math.Inf(1), -1)
	m.AddConstraint("c", GE, 0, T(x, 1))
	r := lpSolve(t, m)
	if r.status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.status)
	}
}

func TestLPDegenerate(t *testing.T) {
	// A classic degenerate LP; Bland's fallback must terminate.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7 (Beale's example)
	m := NewModel()
	inf := math.Inf(1)
	x4 := m.AddContinuous("x4", 0, inf, -0.75)
	x5 := m.AddContinuous("x5", 0, inf, 150)
	x6 := m.AddContinuous("x6", 0, inf, -0.02)
	x7 := m.AddContinuous("x7", 0, inf, 6)
	m.AddConstraint("r1", LE, 0, T(x4, 0.25), T(x5, -60), T(x6, -0.04), T(x7, 9))
	m.AddConstraint("r2", LE, 0, T(x4, 0.5), T(x5, -90), T(x6, -0.02), T(x7, 3))
	m.AddConstraint("r3", LE, 1, T(x6, 1))
	r := lpSolve(t, m)
	if r.status != Optimal {
		t.Fatalf("status = %v, want optimal (Bland should break cycling)", r.status)
	}
	if math.Abs(r.obj-(-0.05)) > 1e-6 {
		t.Errorf("obj = %g, want -0.05", r.obj)
	}
}

func TestLPSolutionFeasible(t *testing.T) {
	// Random-ish medium LP: verify the returned point satisfies the model.
	m := NewModel()
	n := 12
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddContinuous("", 0, float64(3+i%5), float64((i*7)%5)-2)
	}
	for c := 0; c < 8; c++ {
		var terms []Term
		for i := 0; i < n; i++ {
			if (i+c)%3 == 0 {
				terms = append(terms, T(vars[i], float64(1+(i+c)%4)))
			}
		}
		m.AddConstraint("", LE, float64(10+c), terms...)
	}
	r := lpSolve(t, m)
	if r.status != Optimal {
		t.Fatalf("status = %v", r.status)
	}
	if err := m.Feasible(r.x, 1e-6); err != nil {
		t.Errorf("LP solution infeasible: %v", err)
	}
	if math.Abs(m.ObjectiveOf(r.x)-r.obj) > 1e-6 {
		t.Error("objective mismatch")
	}
}

func TestLPFixedVariables(t *testing.T) {
	// B&B passes tightened bounds: lo==hi pins variables.
	m := NewModel()
	x := m.AddContinuous("x", 0, 1, 1)
	y := m.AddContinuous("y", 0, 1, 1)
	m.AddConstraint("c", GE, 1, T(x, 1), T(y, 1))
	lo := []float64{1, 0}
	hi := []float64{1, 1}
	r := solveBoth(t, "x fixed", new(simplex), m, lo, hi, 1000)
	if r.status != Optimal || math.Abs(r.x[x]-1) > 1e-9 {
		t.Fatalf("fixed variable not honored: %v %v", r.status, r.x)
	}
	if math.Abs(r.obj-1) > 1e-6 {
		t.Errorf("obj = %g, want 1", r.obj)
	}
	// Contradictory bounds are infeasible.
	r = solveBoth(t, "crossed bounds", new(simplex), m, []float64{2, 0}, []float64{1, 1}, 1000)
	if r.status != Infeasible {
		t.Errorf("crossed bounds: status = %v", r.status)
	}
}

// fig7Model loads testdata/fig7_q4.model.gz: the model (435 variables,
// 1 182 rows) the warm start's per-query child solve of q4 hands the
// solver during the set-up of the tpch-mqo benchmark workload, the ten
// TPC-H queries of Fig. 7 (seed 1), captured in canonicalModel's layout
// from solveOne. It is under LPCellLimit: its search runs LPs at depth ≤ 2.
func fig7Model(t testing.TB) *Model {
	t.Helper()
	return loadModel(t, "testdata/fig7_q4.model.gz")
}

// rootSearcher returns a searcher of m after init: its bounds are the box
// the root LP runs in, lpIterBudget that LP's pivot budget.
func rootSearcher(t testing.TB, m *Model) *searcher {
	t.Helper()
	o := Options{}
	o.fill()
	s := &searcher{m: m, o: o}
	if early := s.init(); early != nil {
		t.Fatal("init closed the model")
	}
	if !s.useLP {
		t.Fatal("the model is above LPCellLimit: its search runs no LP")
	}
	return s
}

// randomBinaryModel draws a model as TestRandomModelsMatchBruteForce does.
func randomBinaryModel(r *rng.RNG) *Model {
	n := 4 + r.Intn(8)
	m := NewModel()
	for i := 0; i < n; i++ {
		m.AddVar(Variable{Obj: float64(r.Intn(21) - 10), Lower: 0, Upper: 1, Integer: true})
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
		m.AddConstraint("", rel, float64(r.Intn(7)-3), terms...)
	}
	return m
}

// nodeBox returns m's bounds with each integer variable fixed, with
// probability p, to 0 or 1 — or, given a point x, to its value there: the
// box a branch-and-bound node solves its LP in.
func nodeBox(r *rng.RNG, m *Model, p float64, x []float64) (lo, hi []float64) {
	lo, hi = modelBounds(m)
	for i, v := range m.Vars {
		if v.Integer && r.Float64() < p {
			b := float64(r.Intn(2))
			if x != nil {
				b = x[i]
			}
			lo[i], hi[i] = b, b
		}
	}
	return lo, hi
}

// searchBoxes returns the bounds of every node at depth ≤ 2 of a
// node-capped search of m that got as far as its bound test — the boxes
// the search's LPs run in, root first.
func searchBoxes(m *Model, maxNodes int) [][2][]float64 {
	var boxes [][2][]float64
	o := Options{MaxNodes: maxNodes}
	o.fill()
	s := &searcher{m: m, o: o, hook: func(s *searcher, at hookPoint, _ int) {
		if at == hookBounded && s.depth <= 2 {
			boxes = append(boxes, [2][]float64{slices.Clone(s.lo), slices.Clone(s.hi)})
		}
	}}
	s.solve()
	return boxes
}

// TestSimplexMatchesDenseReference holds the simplex to the dense tableau
// it replaced (lp_ref_test.go): the same status and iteration count, the
// same objective and x to the bit. lpSolve checks lp_test.go's models;
// this test adds random binary models and clash-shaped models under
// random node boxes, and the captured Fig. 7 model in the boxes its own
// search solves LPs in (at that search's pivot budget) and in boxes that
// fix part of a feasible point (run to the end) — all on one simplex, so
// an LP also sees whatever its predecessor of another size left behind.
// The vacuity arm: the
// reference pricing by Bland's rule from its first pivot ends one of
// those Fig. 7 LPs after a different number of pivots, so the comparison
// sees a change of pivot rule.
func TestSimplexMatchesDenseReference(t *testing.T) {
	var s simplex
	r := rng.New(2028)
	br := rng.New(2024)
	for trial := 0; trial < 60; trial++ {
		m := randomBinaryModel(br)
		for b, p := range []float64{0, 0.2, 0.5} {
			lo, hi := nodeBox(r, m, p, nil)
			solveBoth(t, fmt.Sprintf("random model %d, box %d", trial, b), &s, m, lo, hi, 50000)
		}
	}
	cr := rng.New(31337)
	for trial := 0; trial < 60; trial++ {
		m := buildClashShaped(cr)
		for b, p := range []float64{0, 0.2, 0.5} {
			lo, hi := nodeBox(r, m, p, nil)
			solveBoth(t, fmt.Sprintf("clash-shaped model %d, box %d", trial, b), &s, m, lo, hi, 50000)
		}
	}

	m := fig7Model(t)
	budget := rootSearcher(t, m).lpIterBudget()
	boxes := searchBoxes(m, 200)
	if len(boxes) == 0 {
		t.Fatal("the Fig. 7 search reached no bound test")
	}
	for i, box := range boxes {
		solveBoth(t, fmt.Sprintf("fig7 q4, search box %d", i), &s, m, box[0], box[1], budget)
	}
	feasible := m.Solve(&Options{LPCellLimit: 1, MaxNodes: 200}).Values
	if feasible == nil {
		t.Fatal("no feasible point of the Fig. 7 model within 200 nodes")
	}
	fixed := []float64{0.9, 0.7}
	if testing.Short() {
		fixed = fixed[:1]
	}
	var ended lpResult
	var endedBox [2][]float64
	for _, p := range fixed {
		lo, hi := nodeBox(r, m, p, feasible)
		res := solveBoth(t, fmt.Sprintf("fig7 q4, %g of a feasible point fixed", p), &s, m, lo, hi, 50000)
		if res.status != Optimal {
			t.Fatalf("fig7 q4, %g of a feasible point fixed: %v, want optimal", p, res.status)
		}
		if ended.x == nil {
			ended, endedBox = res, [2][]float64{lo, hi}
		}
	}
	bland := refSolveLP(m, endedBox[0], endedBox[1], 50000, true)
	if bland.iters == ended.iters {
		t.Fatalf("Bland's rule from the first pivot also takes %d pivots: the comparison cannot see a pivot rule", bland.iters)
	}
	t.Logf("fig7 q4: %d pivots; the reference with Bland's rule from the first pivot takes %d", ended.iters, bland.iters)
}

// TestSimplexReusesTableau pins what an LP costs in allocations once its
// searcher has solved one: the x it returns, nothing else.
func TestSimplexReusesTableau(t *testing.T) {
	m := fig7Model(t)
	feasible := m.Solve(&Options{LPCellLimit: 1, MaxNodes: 200}).Values
	lo, hi := nodeBox(rng.New(3), m, 0.9, feasible)
	s := rootSearcher(t, m)
	if r := s.lp.solve(m, lo, hi, 50000); r.status != Optimal {
		t.Fatalf("first LP: %v, want optimal", r.status)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if r := s.lp.solve(m, lo, hi, 50000); r.status != Optimal {
			t.Fatalf("%v, want optimal", r.status)
		}
	})
	if allocs != 1 {
		t.Fatalf("%.1f allocations per LP after the searcher's first, want 1 (the returned x)", allocs)
	}
}

// BenchmarkSolveLP solves the captured Fig. 7 model's root LP at its
// search's pivot budget on one simplex, as that search runs its LPs.
func BenchmarkSolveLP(b *testing.B) {
	m := fig7Model(b)
	s := rootSearcher(b, m)
	budget := s.lpIterBudget()
	b.ReportAllocs()
	for b.Loop() {
		s.lp.solve(m, s.lo, s.hi, budget)
	}
}
