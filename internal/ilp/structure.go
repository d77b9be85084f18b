package ilp

import (
	"math"
	"slices"
)

// Structure-aware bounding. The CLASH optimizer emits a characteristic
// row pattern:
//
//	choice rows:      Σ_{x∈G} x = 1            (pick one candidate per group)
//	implication rows: -c·x + Σ a_i y_i ≥ 0     (chosen candidate forces its steps)
//
// From these we derive an admissible lower bound that is far stronger
// than the plain variable-bound box: every solution must, for each
// undecided group G, pay at least the cheapest candidate's implied cost
// restricted to objective variables forced *only* from within G (group-
// exclusive variables cannot be paid for by any other group's choice).
// Summing the per-group minima over exclusive variables never double
// counts, so the bound is valid. Real MIP solvers apply the same idea as
// clique/implied-cost bounds; here it makes the Fig. 9-scale models
// tractable without an LP relaxation.

// structure holds the recognized pattern and the per-variable indices
// the search's node evaluation reads. It is built once per solved model
// by analyze and read-only during the search. Its lists are carved out
// of one array each (groupFlat and the *Mem fields), which a Workspace
// keeps from one solve to the next.
type structure struct {
	groups  [][]int // choice groups: variable indices
	groupOf []int   // var -> group index or -1
	forces  [][]int // var x -> objective vars y forced by x=1 (no duplicates)
	// exclusive[y] = g when every x forcing y belongs to group g,
	// -1 otherwise.
	exclusive []int
	valid     bool

	// obj is a flat copy of the model's objective column (a Variable is
	// 48 bytes; the hot loops read one field of it).
	obj []float64
	// qobj is the objective in fixed point: qobj[v] = round(obj[v]·inv).
	// Bounds are computed on these integers, where every sum is exact, so
	// a node's bound is a function of the node's variable bounds alone —
	// not of the order in which the search arrived at them — and two
	// selections that pay the same steps compare equal, not within an ULP
	// (see "Node evaluation" in DESIGN.md §14).
	qobj []int64
	inv  float64
	// dependents[v] lists the groups whose cached minima read v's bounds:
	// v's own group and the group of every candidate that forces v.
	dependents [][]int32
	// rank orders the variables that force nothing (their implied cost is
	// their own coefficient, a constant) cheapest first, lowest index first
	// among equals; -1 for every other variable.
	rank []int32
	// byRank is the inverse of rank.
	byRank []int32

	groupFlat     []int
	forcesMem     lists[int]
	dependentsMem lists[int32]
}

// analyze recognizes m's choice groups and implications, rewriting every
// field of st. It is linear in the model size and runs once per solved
// model.
func (s *structure) analyze(m *Model) {
	n := len(m.Vars)
	s.groupOf = resize(s.groupOf, n)
	s.exclusive = resize(s.exclusive, n)
	for i := range n {
		s.groupOf[i] = -1
		s.exclusive[i] = -2 // unseen
	}
	s.valid = false
	// Choice rows: EQ 1, all coefficients 1, over variables no earlier
	// choice row claimed. A variable joins at most one group, so the
	// members of all groups fit in n.
	s.groupFlat = slices.Grow(s.groupFlat[:0], n)
	s.groups = s.groups[:0]
	for _, c := range m.Cons {
		if !choiceRow(c) {
			continue
		}
		ok := true
		for _, t := range c.Terms {
			if s.groupOf[t.Var] != -1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		start := len(s.groupFlat)
		for _, t := range c.Terms {
			s.groupOf[t.Var] = len(s.groups)
			s.groupFlat = append(s.groupFlat, t.Var)
		}
		s.groups = append(s.groups, s.groupFlat[start:len(s.groupFlat):len(s.groupFlat)])
	}
	// Implication rows: GE 0, exactly one negative term (the trigger
	// x), positive terms y_i each individually forced when x = 1:
	// a_i·1 alone cannot satisfy c unless all others are 1 too, i.e.
	// Σ_{j≠i} a_j < c.
	count := s.forcesMem.begin(n)
	for _, c := range m.Cons {
		if trigger, tc, sum := implication(c); trigger >= 0 {
			for _, t := range c.Terms {
				if t.Var != trigger && sum-t.Coeff < tc-1e-9 {
					count[trigger]++
				}
			}
		}
	}
	s.forces = s.forcesMem.carve()
	for _, c := range m.Cons {
		trigger, tc, sum := implication(c)
		if trigger < 0 {
			continue
		}
		for _, t := range c.Terms {
			if t.Var == trigger {
				continue
			}
			if sum-t.Coeff < tc-1e-9 && !contains(s.forces[trigger], t.Var) {
				s.forces[trigger] = append(s.forces[trigger], t.Var)
			}
		}
	}
	s.index(m)
	if len(s.groups) == 0 {
		return
	}
	// Exclusivity: y is exclusive to group g when every trigger forcing
	// it belongs to g.
	for x, ys := range s.forces {
		g := s.groupOf[x]
		for _, y := range ys {
			switch s.exclusive[y] {
			case -2:
				if g >= 0 {
					s.exclusive[y] = g
				} else {
					s.exclusive[y] = -1
				}
			case g:
				// still exclusive
			default:
				s.exclusive[y] = -1
			}
		}
	}
	s.valid = true
}

// choiceRow reports whether c has a choice row's form: Σx = 1 over at
// least one variable, every coefficient 1.
func choiceRow(c Constraint) bool {
	if c.Rel != EQ || c.RHS != 1 || len(c.Terms) == 0 {
		return false
	}
	for _, t := range c.Terms {
		if t.Coeff != 1 {
			return false
		}
	}
	return true
}

// implication returns the trigger of an implication row, its negated
// coefficient and the sum of the row's positive coefficients; trigger is
// -1 when c is not one (not GE 0, or not exactly one negative term).
func implication(c Constraint) (trigger int, tc, sum float64) {
	if c.Rel != GE || c.RHS != 0 {
		return -1, 0, 0
	}
	trigger = -1
	for _, t := range c.Terms {
		if t.Coeff < 0 {
			if trigger >= 0 {
				return -1, 0, 0
			}
			trigger, tc = t.Var, -t.Coeff
			continue
		}
		sum += t.Coeff
	}
	return trigger, tc, sum
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (st *structure) addDependent(v, g int) {
	for _, have := range st.dependents[v] {
		if int(have) == g {
			return
		}
	}
	st.dependents[v] = append(st.dependents[v], int32(g))
}

// index builds the flat per-variable views: objective columns, the
// fixed-point objective, the cheapest-first order of the variables whose
// implied cost is constant, and each group's dependence on its members
// and on what its candidates force.
func (st *structure) index(m *Model) {
	n := len(m.Vars)
	st.obj = resize(st.obj, n)
	st.qobj = resize(st.qobj, n)
	st.rank = resize(st.rank, n)
	// One fixed-point unit is 2^-61 of Σ|c_v|, the largest objective
	// value a 0-1 point can reach (rounded up to a power of two), so every
	// sum of terms fits an int64 with a bit to spare and the resolution is
	// finer than a float64 sum of the same terms would keep.
	total := 0.0
	for i, v := range m.Vars {
		st.obj[i] = v.Obj
		total += math.Abs(v.Obj)
	}
	_, exp := math.Frexp(total)
	if total == 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		exp = 61
	}
	st.inv = math.Ldexp(1, 61-exp)
	for i := range st.qobj {
		st.qobj[i] = st.quantize(st.obj[i])
	}
	st.byRank = st.byRank[:0]
	for i := range st.rank {
		st.rank[i] = -1
		if len(st.forces[i]) == 0 {
			st.byRank = append(st.byRank, int32(i))
		}
	}
	// Cheapest first, lowest index among equals. The comparison says "less"
	// exactly where obj[a] < obj[b] does, so a NaN coefficient sorts as it
	// always has.
	slices.SortFunc(st.byRank, func(va, vb int32) int {
		if oa, ob := st.obj[va], st.obj[vb]; oa != ob {
			if oa < ob {
				return -1
			}
			return 1
		}
		return int(va) - int(vb)
	})
	for r, v := range st.byRank {
		st.rank[v] = int32(r)
	}
	// A group depends on its members, and on every variable one of its
	// candidates forces.
	count := st.dependentsMem.begin(n)
	for _, members := range st.groups {
		for _, x := range members {
			count[x]++
		}
	}
	for x, ys := range st.forces {
		if st.groupOf[x] >= 0 {
			for _, y := range ys {
				count[y]++
			}
		}
	}
	st.dependents = st.dependentsMem.carve()
	for g, members := range st.groups {
		for _, x := range members {
			st.addDependent(x, g)
		}
	}
	for x, ys := range st.forces {
		if g := st.groupOf[x]; g >= 0 {
			for _, y := range ys {
				st.addDependent(y, g)
			}
		}
	}
}

// quantize converts an objective amount to fixed point.
func (st *structure) quantize(x float64) int64 {
	return int64(math.Round(x * st.inv))
}

// boxTerm is variable v's share of the box bound under the bounds
// [lo, hi]: the variable sits at the bound its coefficient prefers.
func (st *structure) boxTerm(v int, lo, hi float64) int64 {
	b := lo
	if st.obj[v] < 0 {
		b = hi
	}
	if b > 0.5 {
		return st.qobj[v]
	}
	return 0
}

// objective is the fixed-point objective of a point: what the box bound
// of a node whose bounds pin every variable to x evaluates to.
func (st *structure) objective(x []float64) int64 {
	total := int64(0)
	for v, xv := range x {
		total += st.boxTerm(v, xv, xv)
	}
	return total
}
