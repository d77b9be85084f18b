package ilp

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"os"
	"testing"

	"clash/internal/rng"
)

// buildChurnShaped builds a clash-shaped model at the scale of a churn
// step's hard component: groups choice groups of cands candidates each
// over a shared pool of steps, so the search dives dozens of levels, most
// nodes sit below the last group decision, and many selections pay the
// same steps (the ties the fixed-point bound must keep exact). Costs are
// drawn at 1e14, where one float64 ULP is 0.03.
func buildChurnShaped(r *rng.RNG, groups, cands int) *Model {
	m := NewModel()
	nSteps := groups * 3
	ys := make([]int, nSteps)
	costs := make([]float64, nSteps)
	for i := range ys {
		costs[i] = 1e14 * (1 + float64(r.Intn(8))/3)
		ys[i] = m.AddBinary("y", costs[i])
	}
	zs := make([]int, groups)
	for i := range zs {
		zs[i] = m.AddBinary("z", 0)
	}
	for i := 0; i+1 < len(zs); i += 2 {
		m.AddConstraint("onepart", LE, 1, T(zs[i], 1), T(zs[i+1], 1))
	}
	var feeders []int
	for g := 0; g < groups; g++ {
		var choice []Term
		for c := 0; c < cands; c++ {
			x := m.AddBinary("x", 0)
			choice = append(choice, T(x, 1))
			total := 0.0
			seen := map[int]bool{}
			for s := 0; s < 2+r.Intn(2); s++ {
				yi := r.Intn(nSteps)
				if g > 0 && r.Float64() < 0.5 {
					yi = r.Intn(3 * g) // a step an earlier group can pay too
				}
				if !seen[yi] {
					seen[yi] = true
					total += costs[yi]
				}
			}
			row := []Term{T(x, -1)}
			for yi := range ys {
				if seen[yi] {
					row = append(row, T(ys[yi], costs[yi]/total))
				}
			}
			m.AddConstraint("cost", GE, 0, row...)
			if r.Float64() < 0.4 {
				m.AddConstraint("link", GE, 0, T(zs[r.Intn(groups)], 1), T(x, -1))
			}
			if r.Float64() < 0.2 && len(feeders) > 0 {
				row := []Term{T(x, -1)}
				for _, f := range feeders {
					row = append(row, T(f, 1))
				}
				m.AddConstraint("feed", GE, 0, row...)
			}
		}
		m.AddConstraint("choice", EQ, 1, choice...)
		if r.Float64() < 0.3 {
			// Feeding orders: not a choice group, forced only through rows.
			feeders = nil
			for f := 0; f < 2; f++ {
				x := m.AddBinary("f", 0)
				yi := r.Intn(nSteps)
				m.AddConstraint("cost", GE, 0, T(x, -1), T(ys[yi], 1))
				feeders = append(feeders, x)
			}
		}
	}
	return m
}

// decodeCanonical is the inverse of canonicalModel: it rebuilds a model
// (without names) from the serialization the solution cache keys by.
func decodeCanonical(t testing.TB, buf []byte) *Model {
	t.Helper()
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		return v
	}
	f64 := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
		return v
	}
	m := NewModel()
	for n := u32(); n > 0; n-- {
		v := Variable{Obj: f64(), Lower: f64(), Upper: f64()}
		v.Integer = buf[0] == 1
		buf = buf[1:]
		m.AddVar(v)
	}
	for n := u32(); n > 0; n-- {
		rel := Rel(buf[0])
		buf = buf[1:]
		rhs := f64()
		terms := make([]Term, u32())
		for i := range terms {
			terms[i] = T(int(u32()), f64())
		}
		m.AddConstraint("", rel, rhs, terms...)
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over after the model", len(buf))
	}
	return m
}

// churnStepModel loads testdata/churn_step8.model.gz: the one hard
// component (1 324 variables, 2 197 rows, 72 choice groups) of the joint
// model of step 8 of internal/core's controllerSchedule, the solve
// restricted to mature MIRs — captured, in canonicalModel's layout, from
// solveByComponents while TestWarmStartSurvivesTwoSolvesPerStep ran.
func churnStepModel(t *testing.T) *Model {
	t.Helper()
	return loadModel(t, "testdata/churn_step8.model.gz")
}

// fig7Model loads testdata/fig7_q4.model.gz: the model (435 variables,
// 1 182 rows, 4 choice groups) of q4 of the ten TPC-H queries of Fig. 7
// optimized on its own, as an individual plan solves it, under the
// estimates of the tpch-mqo benchmark workload (seed 1), captured in
// canonicalModel's layout from solveOne.
func fig7Model(t testing.TB) *Model {
	t.Helper()
	return loadModel(t, "testdata/fig7_q4.model.gz")
}

// fig7ChildNodes is the node budget the tpch-mqo set-up solves with.
const fig7ChildNodes = 20_000

// TestFig7ChildSearch pins the captured Fig. 7 child search at its
// production budget: it ends at the budget with a fixed incumbent.
func TestFig7ChildSearch(t *testing.T) {
	m := fig7Model(t)
	sol := m.Solve(&Options{MaxNodes: fig7ChildNodes})
	if sol.Status != Limit || sol.Nodes != fig7ChildNodes || sol.Objective != 143187.9639396104 {
		t.Fatalf("status %v, %d nodes, objective %.17g; want limit, %d nodes, 143187.9639396104",
			sol.Status, sol.Nodes, sol.Objective, fig7ChildNodes)
	}
	if err := m.Feasible(sol.Values, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSearchFig7Child runs the captured Fig. 7 child search at its
// production budget.
func BenchmarkSearchFig7Child(b *testing.B) {
	m := fig7Model(b)
	o := &Options{MaxNodes: fig7ChildNodes}
	b.ReportAllocs()
	for b.Loop() {
		m.Solve(o)
	}
}

// loadModel reads a gzipped model in canonicalModel's layout.
func loadModel(t testing.TB, path string) *Model {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeCanonical(t, raw)
	if _, again := canonicalModel(m); !bytes.Equal(raw, again) {
		t.Fatal("the decoded model does not serialize back to the fixture")
	}
	return m
}

// checkedRun solves m on a searcher whose hook compares, at every node,
// the maintained evaluation state with the from-scratch rescans.
func checkedRun(t *testing.T, what string, m *Model, o Options) *Solution {
	t.Helper()
	o.fill()
	c := &nodeChecker{}
	s := &searcher{m: m, o: o, hook: c.hook}
	sol := s.solve()
	c.report(t, what)
	return sol
}

// TestNodeEvaluationMatchesRescan runs the search with the oracle hook on
// at every node: box bound, group bound, decided and available counters,
// the implication fixpoint, the free sets and the branch variable must
// equal what a rescan of the model computes from the bounds alone — in
// the search and through undo — and the hooked solve must end where the
// plain one does.
func TestNodeEvaluationMatchesRescan(t *testing.T) {
	r := rng.New(20200)
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		m := buildClashShaped(r)
		for _, o := range []Options{
			{},
			{MaxNodes: 40},
		} {
			plain := solveOne(m, func() Options { p := o; p.fill(); return p }())
			got := checkedRun(t, "clash-shaped", m, o)
			if got.Status != plain.Status || got.Nodes != plain.Nodes ||
				(got.Values != nil && got.Objective != plain.Objective) {
				t.Fatalf("trial %d %+v: hooked solve %v/%d/%g, plain %v/%d/%g", trial, o,
					got.Status, got.Nodes, got.Objective, plain.Status, plain.Nodes, plain.Objective)
			}
		}
	}
	// Deep trees under a node budget: the regime of a churn step.
	big := 4
	if testing.Short() {
		big = 1
	}
	for trial := 0; trial < big; trial++ {
		m := buildChurnShaped(r, 24, 6)
		sol := checkedRun(t, "churn-shaped", m, Options{MaxNodes: 3000})
		if sol.Values == nil {
			t.Fatalf("churn-shaped trial %d: no incumbent within the budget", trial)
		}
		if err := m.Feasible(sol.Values, 1e-6); err != nil {
			t.Fatalf("churn-shaped trial %d: %v", trial, err)
		}
	}
}

// TestNodeEvaluationOnChurnStep runs the same oracle on a model a churn
// step really solved: coefficients at 1e14, dives seventy groups deep, and
// below them the long runs of nodes that fix one free step at a time —
// where nine in ten of a node-capped search's nodes are spent.
func TestNodeEvaluationOnChurnStep(t *testing.T) {
	m := churnStepModel(t)
	if st := analyze(m); !st.valid || len(st.groups) < 50 {
		t.Fatalf("fixture lost its structure: valid=%v, %d groups", st.valid, len(st.groups))
	}
	sol := checkedRun(t, "churn step", m, Options{MaxNodes: 2000})
	if sol.Status != Limit || sol.Values == nil {
		t.Fatalf("status %v, incumbent %v; the captured solve ran to its budget and held one", sol.Status, sol.Values != nil)
	}
	if err := m.Feasible(sol.Values, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestBoundTiesAreExact pins why the bound lives in fixed point: two
// nodes that pay the same steps must carry the same bound whatever order
// the steps were fixed in, and a node that pays exactly the incumbent's
// steps must meet the cutoff, at coefficients where a float64 sum in a
// different order differs in its last bit.
func TestBoundTiesAreExact(t *testing.T) {
	m := NewModel()
	var ys []int
	for _, c := range []float64{1e14 / 3, 2e14 / 7, 5e14 / 9, 1e14 / 11, 4e14 / 13, 8e14 / 3, 1e14 / 17} {
		ys = append(ys, m.AddBinary("y", c))
	}
	s := &searcher{m: m}
	s.o.fill()
	if early := s.init(); early != nil {
		t.Fatal("init closed the model")
	}
	x := make([]float64, len(ys))
	for i := range x {
		x[i] = 1
	}
	s.offer(x, m.ObjectiveOf(x))
	for _, y := range ys {
		s.setLo(y, 1)
	}
	forward := s.box
	s.undo(0)
	if lb := s.box; lb != 0 {
		t.Fatalf("box bound %d after undoing every fix, want 0", lb)
	}
	for i := len(ys) - 1; i >= 0; i-- {
		s.setLo(ys[i], 1)
	}
	backward := s.box
	if forward != backward {
		t.Fatalf("the same fixes in two orders bound differently: %d vs %d", forward, backward)
	}
	if forward < s.cutoff {
		t.Fatalf("a node paying the incumbent's steps (%d) is below the cutoff (%d): the tie is lost", forward, s.cutoff)
	}
	// The float sums this replaces do differ between the two orders.
	a, b := 0.0, 0.0
	for i := range ys {
		a += m.Vars[ys[i]].Obj
		b += m.Vars[ys[len(ys)-1-i]].Obj
	}
	if a == b {
		t.Fatal("the float sums agree on this instance: it no longer shows what fixed point is for")
	}
	if math.Abs(float64(forward)/s.st.inv-a) > 1 {
		t.Fatalf("fixed-point bound %g is not the objective %g", float64(forward)/s.st.inv, a)
	}
}

// TestNodeEvaluationAllocFree pins the per-node cost model: after init a
// node allocates nothing.
func TestNodeEvaluationAllocFree(t *testing.T) {
	for name, m := range map[string]*Model{
		"churn-shaped": buildChurnShaped(rng.New(7), 24, 6),
		"churn step":   churnStepModel(t),
	} {
		o := Options{MaxNodes: 400}
		o.fill()
		s := &searcher{m: m, o: o}
		if early := s.init(); early != nil {
			t.Fatalf("%s: init closed the model", name)
		}
		total := 0
		allocs := testing.AllocsPerRun(5, func() {
			s.nodes, s.hitLim = 0, false
			s.dfs(-1)
			total += s.nodes
		})
		if total < 6*o.MaxNodes {
			t.Fatalf("%s: only %d nodes explored; the search closed before its budget", name, total)
		}
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocations per %d-node search after init, want 0", name, allocs, o.MaxNodes)
		}
	}
}
