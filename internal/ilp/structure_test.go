package ilp

import (
	"math"
	"testing"
)

func TestAnalyzeRecognizesChoiceAndImplication(t *testing.T) {
	m := NewModel()
	x1 := m.AddBinary("x1", 0)
	x2 := m.AddBinary("x2", 0)
	y1 := m.AddBinary("y1", 10)
	y2 := m.AddBinary("y2", 20)
	m.AddConstraint("choice", EQ, 1, T(x1, 1), T(x2, 1))
	// Normalized cost row: x1 forces y1 and y2.
	m.AddConstraint("cost1", GE, 0, T(x1, -1), T(y1, 10.0/30), T(y2, 20.0/30))
	// x2 forces only y2.
	m.AddConstraint("cost2", GE, 0, T(x2, -1), T(y2, 1))

	st := analyze(m)
	if !st.valid {
		t.Fatal("structure not recognized")
	}
	if len(st.groups) != 1 || len(st.groups[0]) != 2 {
		t.Fatalf("groups = %v", st.groups)
	}
	if st.groupOf[x1] != 0 || st.groupOf[x2] != 0 || st.groupOf[y1] != -1 {
		t.Error("groupOf wrong")
	}
	if len(st.forces[x1]) != 2 {
		t.Errorf("x1 forces %v, want y1 and y2", st.forces[x1])
	}
	if len(st.forces[x2]) != 1 || st.forces[x2][0] != y2 {
		t.Errorf("x2 forces %v, want y2", st.forces[x2])
	}
	// y1 is exclusive to group 0; y2 too (both triggers in group 0).
	if st.exclusive[y1] != 0 || st.exclusive[y2] != 0 {
		t.Errorf("exclusive = %v %v", st.exclusive[y1], st.exclusive[y2])
	}
}

func TestAnalyzeExclusivityAcrossGroups(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 0)
	b := m.AddBinary("b", 0)
	y := m.AddBinary("y", 5)
	m.AddConstraint("g1", EQ, 1, T(a, 1))
	m.AddConstraint("g2", EQ, 1, T(b, 1))
	m.AddConstraint("c1", GE, 0, T(a, -1), T(y, 1))
	m.AddConstraint("c2", GE, 0, T(b, -1), T(y, 1))
	st := analyze(m)
	if st.exclusive[y] != -1 {
		t.Errorf("y forced from two groups must not be exclusive: %d", st.exclusive[y])
	}
}

func TestGroupBoundAdmissible(t *testing.T) {
	// Two groups with exclusive costs 10/20 and 5/7: bound = 10 + 5.
	m := NewModel()
	a1 := m.AddBinary("a1", 0)
	a2 := m.AddBinary("a2", 0)
	b1 := m.AddBinary("b1", 0)
	b2 := m.AddBinary("b2", 0)
	ya1 := m.AddBinary("", 10)
	ya2 := m.AddBinary("", 20)
	yb1 := m.AddBinary("", 5)
	yb2 := m.AddBinary("", 7)
	m.AddConstraint("ga", EQ, 1, T(a1, 1), T(a2, 1))
	m.AddConstraint("gb", EQ, 1, T(b1, 1), T(b2, 1))
	m.AddConstraint("", GE, 0, T(a1, -1), T(ya1, 1))
	m.AddConstraint("", GE, 0, T(a2, -1), T(ya2, 1))
	m.AddConstraint("", GE, 0, T(b1, -1), T(yb1, 1))
	m.AddConstraint("", GE, 0, T(b2, -1), T(yb2, 1))
	s := &searcher{m: m}
	s.o.fill()
	if early := s.init(); early != nil {
		t.Fatalf("init closed the model: %+v", early)
	}
	// The bound is kept in fixed point; one unit is 1/inv of the objective.
	bound := func() float64 {
		if got, want := s.groupBound(), scratchGroupBound(s.st, s.lo, s.hi); got != want {
			t.Errorf("maintained group bound %d, rescan %d", got, want)
		}
		return float64(s.groupBound()) / s.st.inv
	}
	if got := bound(); math.Abs(got-15) > 1e-9 {
		t.Errorf("groupBound = %g, want 15", got)
	}
	// Excluding the cheap candidate of group a raises the bound.
	s.setHi(a1, 0)
	if got := bound(); math.Abs(got-25) > 1e-9 {
		t.Errorf("groupBound after exclusion = %g, want 25", got)
	}
	// Deciding group a (a2=1) removes its term.
	s.setLo(a2, 1)
	if got := bound(); math.Abs(got-5) > 1e-9 {
		t.Errorf("groupBound after decision = %g, want 5", got)
	}
	// Undoing both moves restores the first bound to the bit.
	s.undo(len(s.trail) - 2)
	if got := bound(); math.Abs(got-15) > 1e-9 {
		t.Errorf("groupBound after undo = %g, want 15", got)
	}
	// The bound never exceeds the true optimum (10 + 5 ≤ 15 = optimum).
	sol := m.Solve(nil)
	if sol.Status != Optimal || sol.Objective < 15-1e-9 {
		t.Fatalf("optimum = %v %g", sol.Status, sol.Objective)
	}
}

func TestWarmStartSeedsIncumbent(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 3)
	m.AddConstraint("need", GE, 1, T(x, 1), T(y, 1))
	ws := []float64{0, 1} // feasible but suboptimal (cost 3)
	sol := m.Solve(&Options{WarmStart: ws})
	if sol.Status != Optimal || sol.Objective != 1 {
		t.Fatalf("solve with warm start: %v %g", sol.Status, sol.Objective)
	}
	// Infeasible warm starts are ignored, not fatal.
	bad := []float64{0, 0}
	sol = m.Solve(&Options{WarmStart: bad})
	if sol.Status != Optimal || sol.Objective != 1 {
		t.Fatalf("solve with bad warm start: %v %g", sol.Status, sol.Objective)
	}
	// With a zero node budget, the warm start is the returned incumbent.
	sol = m.Solve(&Options{WarmStart: ws, MaxNodes: -1})
	if sol.Status != Limit || sol.Values == nil || sol.Objective != 3 {
		t.Fatalf("warm start not returned under limit: %+v", sol)
	}
}

func TestAnalyzeIgnoresNonPatternRows(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddConstraint("not-choice", EQ, 2, T(x, 1))         // rhs != 1
	m.AddConstraint("not-impl", GE, 1, T(x, -1), T(y, 1)) // rhs != 0
	st := analyze(m)
	if st.valid {
		t.Error("no groups should be recognized")
	}
	if len(st.forces[x]) != 0 {
		t.Error("implication recognized from non-pattern row")
	}
}
