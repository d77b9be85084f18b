package ilp

import (
	"fmt"
	"strings"
	"testing"
)

// suffixNames names variables "v<i>" and rows "row<i>", the way a
// builder that adds everything unnamed renders names on demand.
type suffixNames struct{ calls *int }

func (n suffixNames) VarName(v int) string { *n.calls++; return fmt.Sprintf("v%d", v) }
func (n suffixNames) ConName(c int) string { *n.calls++; return fmt.Sprintf("row%d", c) }

// TestLazyNamesReachTheReader pins that a model built without names
// still prints and reports its rows by name through its Namer, that an
// explicit name wins, and that nothing asks for a name while the model
// is built or solved.
func TestLazyNamesReachTheReader(t *testing.T) {
	calls := 0
	m := NewModel()
	m.SetNamer(suffixNames{&calls})
	a, b := m.AddBinary("", 1), m.AddBinary("", 2)
	c := m.AddBinary("named", 0)
	m.AddConstraint("", EQ, 1, T(a, 1), T(b, 1))  // row0
	m.AddConstraint("", LE, 0, T(c, 1), T(a, -1)) // row1
	m.AddConstraint("pick", GE, 1, T(a, 1), T(c, 1))
	sol := m.Solve(nil)
	if sol.Status != Optimal || !sol.IsOne(a) || sol.IsOne(b) || sol.Objective != 1 {
		t.Fatalf("solve: %v %v", sol.Status, sol.Values)
	}
	if calls != 0 {
		t.Fatalf("building and solving asked for %d names", calls)
	}

	err := m.Feasible([]float64{0, 0, 0}, 1e-9)
	if err == nil || !strings.Contains(err.Error(), `"row0"`) {
		t.Fatalf("Feasible: %v, want the violated row0 named", err)
	}
	err = m.Feasible([]float64{0, 1, 0}, 1e-9)
	if err == nil || !strings.Contains(err.Error(), `"pick"`) {
		t.Fatalf("Feasible: %v, want the violated pick named", err)
	}
	err = m.Feasible([]float64{0.5, 0.5, 0}, 1e-9)
	if err == nil || !strings.Contains(err.Error(), `"v0"`) {
		t.Fatalf("Feasible: %v, want the fractional v0 named", err)
	}
	out := m.String()
	for _, want := range []string{"min 1 v0 + 2 v1", "row0: 1 v0 + 1 v1 = 1", "row1: -1 v0 + 1 named <= 0", "pick: 1 v0 + 1 named >= 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() lacks %q:\n%s", want, out)
		}
	}
}

// TestComponentNamesAreTheParents pins that the sub-models a solve
// splits a model into name their variables and rows by the parent's.
func TestComponentNamesAreTheParents(t *testing.T) {
	calls := 0
	m := NewModel()
	m.SetNamer(suffixNames{&calls})
	for i := 0; i < 4; i++ {
		m.AddBinary("", 1)
	}
	m.AddConstraint("", EQ, 1, T(1, 1), T(3, 1)) // row0, component {1, 3}
	m.AddConstraint("", EQ, 1, T(0, 1), T(2, 1)) // row1, component {0, 2}
	m.AddConstraint("", LE, 1, T(3, 1), T(1, 1)) // row2
	comps := components(m)
	subs := splitComponents(m, comps)
	if len(subs) != 2 {
		t.Fatalf("%d components, want 2", len(subs))
	}
	got := []string{subs[0].VarName(1), subs[0].ConName(0), subs[1].VarName(0), subs[1].ConName(1)}
	want := []string{"v2", "row1", "v1", "row2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("component names %v, want %v", got, want)
	}
	for ci, sub := range subs {
		for _, c := range sub.Cons {
			if !normalized(c.Terms) {
				t.Errorf("component %d row %v not sorted and merged", ci, c.Terms)
			}
		}
	}
}
