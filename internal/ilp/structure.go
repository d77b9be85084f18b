package ilp

import (
	"math"
	"sort"
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
// the search's node evaluation reads. It is built once per Solve by
// analyze and shared read-only by every searcher of that solve.
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
}

// analyze recognizes choice groups and implications. It is linear in the
// model size and runs once per Solve.
func analyze(m *Model) *structure {
	n := len(m.Vars)
	s := &structure{
		groupOf:   make([]int, n),
		forces:    make([][]int, n),
		exclusive: make([]int, n),
	}
	for i := range s.groupOf {
		s.groupOf[i] = -1
		s.exclusive[i] = -2 // unseen
	}
	for _, c := range m.Cons {
		// Choice row: EQ 1, all coefficients 1.
		if c.Rel == EQ && c.RHS == 1 {
			ok := true
			for _, t := range c.Terms {
				if t.Coeff != 1 || s.groupOf[t.Var] != -1 {
					ok = false
					break
				}
			}
			if ok && len(c.Terms) > 0 {
				g := len(s.groups)
				var members []int
				for _, t := range c.Terms {
					s.groupOf[t.Var] = g
					members = append(members, t.Var)
				}
				s.groups = append(s.groups, members)
			}
			continue
		}
		// Implication row: GE 0, exactly one negative term (the trigger
		// x), positive terms y_i each individually forced when x = 1:
		// a_i·1 alone cannot satisfy c unless all others are 1 too, i.e.
		// Σ_{j≠i} a_j < c.
		if c.Rel != GE || c.RHS != 0 {
			continue
		}
		trigger, tc := -1, 0.0
		sum := 0.0
		ok := true
		for _, t := range c.Terms {
			if t.Coeff < 0 {
				if trigger >= 0 {
					ok = false
					break
				}
				trigger, tc = t.Var, -t.Coeff
				continue
			}
			sum += t.Coeff
		}
		if !ok || trigger < 0 {
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
		return s
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
	for x, ys := range s.forces {
		if g := s.groupOf[x]; g >= 0 {
			for _, y := range ys {
				s.addDependent(y, g)
			}
		}
	}
	s.valid = true
	return s
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
// implied cost is constant, and each group's dependence on its members.
func (st *structure) index(m *Model) {
	n := len(m.Vars)
	st.obj = make([]float64, n)
	st.qobj = make([]int64, n)
	st.dependents = make([][]int32, n)
	st.rank = make([]int32, n)
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
	for i := range st.rank {
		st.rank[i] = -1
		if len(st.forces[i]) == 0 {
			st.byRank = append(st.byRank, int32(i))
		}
	}
	sort.Slice(st.byRank, func(a, b int) bool {
		va, vb := st.byRank[a], st.byRank[b]
		if st.obj[va] != st.obj[vb] {
			return st.obj[va] < st.obj[vb]
		}
		return va < vb
	})
	for r, v := range st.byRank {
		st.rank[v] = int32(r)
	}
	for g, members := range st.groups {
		for _, x := range members {
			st.addDependent(x, g)
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
