package ilp

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"clash/internal/rng"
)

// The solver's steps on a fresh workspace, as the tests call them.

func solveOne(m *Model, o Options) *Solution { return new(Workspace).solveOne(m, o) }

func components(m *Model) [][]int { return new(Workspace).components(m) }

func splitComponents(m *Model, comps [][]int) []Model { return new(Workspace).split(m, comps) }

func analyze(m *Model) *structure {
	st := new(structure)
	st.analyze(m)
	return st
}

// reuseCase is one solve of the workspace tests: a model and its options.
type reuseCase struct {
	what string
	m    *Model
	o    Options
}

// reuseCases lists the models of TestNodeEvaluationOnChurnStep's fixture
// and of the random stress generators — clash-shaped, churn-shaped and
// general models with mixed signs, some infeasible — each under a node
// cap and with a warm start, in an order whose sizes go up and down, so a
// reused workspace holds arrays longer than the next model needs and
// lists laid out for another model.
func reuseCases(t *testing.T) []reuseCase {
	r := rng.New(4242)
	churn := churnStepModel(t)
	var out []reuseCase
	add := func(what string, m *Model, maxNodes int) {
		out = append(out, reuseCase{what, m, Options{MaxNodes: maxNodes}})
		// A warm start: the point a short search ends at, when it finds one.
		if sol := m.Solve(&Options{MaxNodes: 20}); sol.Values != nil {
			out = append(out, reuseCase{what + "+warm", m, Options{MaxNodes: maxNodes, WarmStart: sol.Values}})
		}
	}
	for i := 0; i < 12; i++ {
		if i%4 == 0 {
			add("churn step", churn, 2000)
		}
		add("clash-shaped", buildClashShaped(r), 0)
		add("random", randomModel(r), 0)
		if i%3 == 0 {
			add("churn-shaped", buildChurnShaped(r, 24, 6), 3000)
		}
		add("clash-shaped capped", buildClashShaped(r), 40)
	}
	return out
}

// randomModel draws a small general 0-1 model the way
// TestRandomModelsMatchBruteForce does: mixed-sign objective and rows of
// every relation.
func randomModel(r *rng.RNG) *Model {
	n := 4 + r.Intn(8)
	m := NewModel()
	for i := 0; i < n; i++ {
		m.AddBinary("", float64(r.Intn(21)-10))
	}
	for c := 1 + r.Intn(5); c > 0; c-- {
		var terms []Term
		for i := 0; i < n; i++ {
			if r.Float64() < 0.5 {
				terms = append(terms, T(i, float64(r.Intn(9)-4)))
			}
		}
		if len(terms) > 0 {
			m.AddConstraint("", []Rel{LE, GE, EQ}[r.Intn(3)], float64(r.Intn(7)-3), terms...)
		}
	}
	return m
}

// sameSolution reports whether two solutions are equal bit for bit:
// status, objective, values and nodes.
func sameSolution(a, b *Solution) bool {
	if a.Status != b.Status || a.Nodes != b.Nodes ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.Values) != len(b.Values) ||
		(a.Values == nil) != (b.Values == nil) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// TestWorkspaceReuseMatchesFresh solves every case on a fresh workspace
// and on one workspace reused for all of them: the solutions must be
// equal bit for bit. The second arm poisons every array the workspace
// holds between solves — a solve must write what it reads. Every solution
// must still be what it was when the last solve is done: nothing a solve
// returns points into the workspace.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	cases := reuseCases(t)
	for _, poisoned := range []bool{false, true} {
		w := new(Workspace)
		sols := make([]*Solution, len(cases))
		kept := make([]Solution, len(cases))
		for i, c := range cases {
			want := new(Workspace).Solve(c.m, &c.o)
			got := w.Solve(c.m, &c.o)
			if !sameSolution(got, want) {
				t.Fatalf("poisoned=%v case %d (%s): reused workspace %v/%d nodes/%.17g, fresh %v/%d nodes/%.17g",
					poisoned, i, c.what, got.Status, got.Nodes, got.Objective, want.Status, want.Nodes, want.Objective)
			}
			sols[i], kept[i] = got, *want
			if poisoned {
				poison(reflect.ValueOf(w).Elem())
			}
		}
		for i := range sols {
			if !sameSolution(sols[i], &kept[i]) {
				t.Fatalf("poisoned=%v case %d (%s): the solution changed after later solves on its workspace", poisoned, i, cases[i].what)
			}
		}
	}
}

// TestWorkspaceSolveAllocs pins what reuse is for: once a workspace has
// solved a model, solving it again allocates only what the solve returns
// — per component its Solution and incumbent, and for a model that splits
// the stitched Solution with its values.
func TestWorkspaceSolveAllocs(t *testing.T) {
	r := rng.New(99)
	split := NewModel()
	for i := 0; i < 6; i++ {
		appendModel(split, buildClashShaped(r))
	}
	for name, c := range map[string]reuseCase{
		"churn step":     {m: churnStepModel(t), o: Options{MaxNodes: 2000}},
		"six components": {m: split},
	} {
		w := new(Workspace)
		comps := len(components(c.m))
		allocs := testing.AllocsPerRun(3, func() {
			if sol := w.Solve(c.m, &c.o); sol.Values == nil {
				t.Fatalf("%s: no solution", name)
			}
		})
		t.Logf("%s: %.0f allocations per solve, %d components", name, allocs, comps)
		limit := float64(2 * comps)
		if comps > 1 {
			limit += 2
		}
		if allocs > limit {
			t.Fatalf("%s: %.0f allocations per solve on a reused workspace (%d components), want at most %.0f", name, allocs, comps, limit)
		}
	}
}

// appendModel adds src's variables and rows to m, renumbered after m's.
func appendModel(m, src *Model) {
	base := len(m.Vars)
	for _, v := range src.Vars {
		m.AddBinary(v.Name, v.Obj)
	}
	for _, c := range src.Cons {
		terms := make([]Term, len(c.Terms))
		for i, t := range c.Terms {
			terms[i] = T(base+t.Var, t.Coeff)
		}
		m.AddConstraint(c.Name, c.Rel, c.RHS, terms...)
	}
}

// poison overwrites every value reachable from v without following a
// pointer, every slice to its capacity: floats with NaN, signed integers
// with -1 or MaxInt32 in turn, unsigned ones with all bits set, bools with
// true. It writes unexported fields through their addresses.
func poison(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			poison(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poison(v.Index(i))
		}
	case reflect.Slice:
		full := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < full.Len(); i++ {
			poison(full.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Int8, reflect.Int16:
		v.SetInt(-1)
	case reflect.Int, reflect.Int32, reflect.Int64:
		// -1 and MaxInt32 in turn, by address.
		v.SetInt([2]int64{-1, math.MaxInt32}[v.UnsafeAddr()/v.Type().Size()%2])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(math.MaxUint64 >> (64 - 8*v.Type().Size()))
	case reflect.Bool:
		v.SetBool(true)
	}
}
