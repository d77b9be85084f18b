// Package ilp implements a small 0-1 integer linear programming solver:
// a branch-and-bound search that bounds by constraint propagation, choice-
// group implications and a fixed-point box + group bound, with no LP
// relaxation. It replaces the paper's use of Gurobi (DESIGN.md,
// substitution table).
//
// The solver is exact: for feasible models it returns a provably optimal
// solution (within tolerance) unless MaxNodes interrupts the search
// (Status Limit), which is what the reproduction of the paper's Fig. 9
// experiments requires. It is tuned for the structure the
// CLASH optimizer emits — selection rows (Σx = 1), implication-style cost
// rows, and non-negative objectives — but is a general 0-1 solver.
package ilp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // Σ a_i x_i ≤ b
	GE            // Σ a_i x_i ≥ b
	EQ            // Σ a_i x_i = b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Term is one coefficient of a constraint.
type Term struct {
	Var   int
	Coeff float64
}

// T is shorthand for building terms.
func T(v int, c float64) Term { return Term{Var: v, Coeff: c} }

// Constraint is a linear constraint over model variables.
type Constraint struct {
	Name  string
	Terms []Term
	Rel   Rel
	RHS   float64
}

// Variable describes one model variable, a 0-1 integer.
type Variable struct {
	Name string
	Obj  float64
}

// Model is a minimization 0-1 ILP: min c'x subject to linear constraints,
// x ∈ {0,1}ⁿ.
type Model struct {
	Vars []Variable
	Cons []Constraint

	// namer names what was added without a name; nil leaves such
	// variables and constraints numbered.
	namer Namer
	// slab backs the constraints' term slices: AddConstraint copies into
	// it instead of cloning per constraint, and starts a new one of
	// slabChunk terms when the rest does not fit.
	slab []Term
}

const slabChunk = 4096

// Namer names a model's variables and constraints on demand. A builder
// whose names are long and only read when something goes wrong (String,
// Feasible's errors) adds them unnamed and hands the model a Namer; the
// solver itself never reads a name.
type Namer interface {
	VarName(v int) string
	ConName(c int) string
}

// SetNamer installs the namer consulted for every variable and
// constraint added with an empty name.
func (m *Model) SetNamer(n Namer) { m.namer = n }

// VarName returns variable v's name: the one it was added with, else the
// namer's, else "x<v>".
func (m *Model) VarName(v int) string {
	if n := m.Vars[v].Name; n != "" {
		return n
	}
	if m.namer != nil {
		return m.namer.VarName(v)
	}
	return fmt.Sprintf("x%d", v)
}

// ConName returns constraint c's name: the one it was added with, else
// the namer's, else "c<c>".
func (m *Model) ConName(c int) string {
	if n := m.Cons[c].Name; n != "" {
		return n
	}
	if m.namer != nil {
		return m.namer.ConName(c)
	}
	return fmt.Sprintf("c%d", c)
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddBinary adds a 0/1 variable with the given objective coefficient and
// returns its index.
func (m *Model) AddBinary(name string, obj float64) int {
	m.Vars = append(m.Vars, Variable{Name: name, Obj: obj})
	return len(m.Vars) - 1
}

// AddConstraint adds a constraint; duplicate variables within one
// constraint are merged, their coefficients summed in the order given,
// and zero coefficients dropped. Terms come out sorted by variable.
func (m *Model) AddConstraint(name string, rel Rel, rhs float64, terms ...Term) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.Vars) {
			panic(fmt.Sprintf("ilp: constraint %d (%q) references variable %d of %d", len(m.Cons), name, t.Var, len(m.Vars)))
		}
	}
	if cap(m.slab)-len(m.slab) < len(terms) {
		m.slab = make([]Term, 0, max(slabChunk, len(terms)))
	}
	start := len(m.slab)
	m.slab = append(m.slab, terms...)
	out := normalize(m.slab[start:])
	// The slab keeps only what survived; capping the slice's capacity
	// keeps the next constraint's terms out of this one's.
	m.slab = m.slab[:start+len(out)]
	m.Cons = append(m.Cons, Constraint{Name: name, Terms: out[:len(out):len(out)], Rel: rel, RHS: rhs})
}

// normalize sorts terms by variable in place (stably), merges duplicates
// by summing their coefficients in the order given, and drops zeros: the
// form every constraint of a model has.
func normalize(terms []Term) []Term {
	if normalized(terms) {
		return terms
	}
	slices.SortStableFunc(terms, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
	n := 0
	for _, t := range terms {
		if n > 0 && terms[n-1].Var == t.Var {
			terms[n-1].Coeff += t.Coeff
			continue
		}
		terms[n] = t
		n++
	}
	return slices.DeleteFunc(terms[:n], func(t Term) bool { return t.Coeff == 0 })
}

// normalized reports whether terms are already in normalize's form:
// variables strictly ascending, no zero coefficient.
func normalized(terms []Term) bool {
	for i, t := range terms {
		if t.Coeff == 0 || i > 0 && terms[i-1].Var >= t.Var {
			return false
		}
	}
	return true
}

// Grow makes room for vars more variables, and cons more constraints
// with terms terms in all, to be added without reallocating.
func (m *Model) Grow(vars, cons, terms int) {
	m.Vars = slices.Grow(m.Vars, vars)
	m.Cons = slices.Grow(m.Cons, cons)
	if cap(m.slab)-len(m.slab) < terms {
		m.slab = make([]Term, 0, terms)
	}
}

// Reset empties the model for reuse and drops its namer. It keeps the
// capacity of Vars, Cons and the term slab, so a model rebuilt to about
// its old size allocates nothing; slices of the old model's constraints
// must not be read after it.
func (m *Model) Reset() {
	m.Vars, m.Cons, m.slab, m.namer = m.Vars[:0], m.Cons[:0], m.slab[:0], nil
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.Vars) }

// NumCons returns the number of constraints.
func (m *Model) NumCons() int { return len(m.Cons) }

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Limit // node limit hit; Solution carries the incumbent if any
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return "limit"
	}
}

// Solution is the result of solving a model.
type Solution struct {
	Status    Status
	Objective float64
	Values    []float64
	Nodes     int // branch-and-bound nodes explored
}

// Value returns the solution value of variable v: 0 or 1.
func (s *Solution) Value(v int) float64 { return s.Values[v] }

// IsOne reports whether binary variable v is set in the solution.
func (s *Solution) IsOne(v int) bool { return s.Values[v] > 0.5 }

// Feasible checks the solution against the model within tol; it returns a
// descriptive error for the first violated constraint. Used by tests and
// as an internal sanity check.
func (m *Model) Feasible(values []float64, tol float64) error {
	if len(values) != len(m.Vars) {
		return fmt.Errorf("ilp: %d values for %d variables", len(values), len(m.Vars))
	}
	v, c, lhs := m.violation(values, tol)
	switch {
	case v >= 0:
		x := values[v]
		if x < -tol || x > 1+tol {
			return fmt.Errorf("ilp: variable %q = %g outside [0, 1]", m.VarName(v), x)
		}
		return fmt.Errorf("ilp: variable %q = %g not integral", m.VarName(v), x)
	case c >= 0:
		rhs := m.Cons[c].RHS
		op := [...]string{LE: ">", GE: "<", EQ: "!="}[m.Cons[c].Rel]
		return fmt.Errorf("ilp: constraint %q violated: %g %s %g", m.ConName(c), lhs, op, rhs)
	}
	return nil
}

// feasible is Feasible without the error: the solver asks it at every
// leaf, where a rejected point must not cost a rendered name.
func (m *Model) feasible(values []float64, tol float64) bool {
	if len(values) != len(m.Vars) {
		return false
	}
	v, c, _ := m.violation(values, tol)
	return v < 0 && c < 0
}

// violation finds the first variable outside [0, 1] or not integral,
// else the first violated constraint with its left-hand side; -1 for
// none.
func (m *Model) violation(values []float64, tol float64) (v, c int, lhs float64) {
	for i, x := range values {
		if x < -tol || x > 1+tol || math.Abs(x-math.Round(x)) > tol {
			return i, -1, 0
		}
	}
	for i, con := range m.Cons {
		sum := 0.0
		for _, t := range con.Terms {
			sum += t.Coeff * values[t.Var]
		}
		switch con.Rel {
		case LE:
			if sum > con.RHS+tol {
				return -1, i, sum
			}
		case GE:
			if sum < con.RHS-tol {
				return -1, i, sum
			}
		case EQ:
			if math.Abs(sum-con.RHS) > tol {
				return -1, i, sum
			}
		}
	}
	return -1, -1, 0
}

// ObjectiveOf evaluates the objective at the given point.
func (m *Model) ObjectiveOf(values []float64) float64 {
	obj := 0.0
	for i, v := range m.Vars {
		obj += v.Obj * values[i]
	}
	return obj
}

// String renders the model in an LP-like text format for debugging.
func (m *Model) String() string {
	var b strings.Builder
	b.WriteString("min ")
	first := true
	for i, v := range m.Vars {
		if v.Obj == 0 {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		first = false
		fmt.Fprintf(&b, "%g %s", v.Obj, m.VarName(i))
	}
	b.WriteString("\ns.t.\n")
	for ci, c := range m.Cons {
		fmt.Fprintf(&b, "  %s: ", m.ConName(ci))
		for k, t := range c.Terms {
			if k > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%g %s", t.Coeff, m.VarName(t.Var))
		}
		fmt.Fprintf(&b, " %s %g\n", c.Rel, c.RHS)
	}
	for i := range m.Vars {
		fmt.Fprintf(&b, "  0 <= %s <= 1 int\n", m.VarName(i))
	}
	return b.String()
}
