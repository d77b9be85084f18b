package ilp

import "math"

// The dense simplex solveLP ran before its pivots went sparse, kept as the
// reference TestSimplexMatchesDenseReference compares solveLP with bit for
// bit. It is the old code with its identifiers prefixed "ref" and one
// addition: refBland, which the vacuity arm sets to price by Bland's rule
// from the first pivot.

func refSolveLP(m *Model, lo, hi []float64, maxIter int, refBland bool) lpResult {
	n := len(m.Vars)
	for i := range m.Vars {
		if lo[i] > hi[i]+1e-12 {
			return lpResult{status: Infeasible}
		}
	}

	s := &refSimplex{maxIter: maxIter, refBland: refBland}
	s.build(m, lo, hi)

	// Phase 1: minimize the sum of artificials.
	if !s.run() {
		return lpResult{status: Limit, iters: s.iters}
	}
	if s.objective() > 1e-7 {
		return lpResult{status: Infeasible, iters: s.iters}
	}
	s.enterPhase2()
	if !s.run() {
		return lpResult{status: Limit, iters: s.iters}
	}
	if s.unbounded {
		return lpResult{status: Unbounded, iters: s.iters}
	}

	x := make([]float64, n)
	vals := s.values()
	for i := 0; i < n; i++ {
		v := lo[i] + vals[i]
		// Clamp tiny numerical drift back into bounds.
		if v < lo[i] {
			v = lo[i]
		}
		if v > hi[i] {
			v = hi[i]
		}
		x[i] = v
	}
	return lpResult{status: Optimal, obj: m.ObjectiveOf(x), x: x, iters: s.iters}
}

type refSimplex struct {
	rows, cols int
	nStruct    int // structural (model) variables; then slacks, then artificials
	artStart   int // first artificial column
	T          [][]float64
	d          []float64 // reduced-cost row for the current phase
	cost       []float64 // phase-2 costs per column
	beta       []float64 // current values of basic variables (shifted space)
	basis      []int     // column basic in each row
	status     []int8
	ub         []float64 // shifted upper bounds per column (may be +Inf)
	iters      int
	maxIter    int
	unbounded  bool
	inPhase2   bool
	degenerate int // consecutive degenerate pivots; triggers Bland's rule
	refBland   bool
}

// build constructs the phase-1 tableau.
func (s *refSimplex) build(m *Model, lo, hi []float64) {
	nv := len(m.Vars)
	nc := len(m.Cons)
	nSlack := 0
	for _, c := range m.Cons {
		if c.Rel != EQ {
			nSlack++
		}
	}
	s.rows = nc
	s.nStruct = nv
	s.artStart = nv + nSlack
	s.cols = nv + nSlack + nc

	s.T = make([][]float64, nc)
	for i := range s.T {
		s.T[i] = make([]float64, s.cols)
	}
	s.ub = make([]float64, s.cols)
	s.status = make([]int8, s.cols)
	s.cost = make([]float64, s.cols)
	inf := math.Inf(1)
	for j := 0; j < nv; j++ {
		s.ub[j] = hi[j] - lo[j]
		s.status[j] = atLower
		s.cost[j] = m.Vars[j].Obj
	}
	for j := nv; j < s.cols; j++ {
		s.ub[j] = inf
		s.status[j] = atLower
	}

	rhs := make([]float64, nc)
	slack := nv
	for i, c := range m.Cons {
		b := c.RHS
		for _, t := range c.Terms {
			s.T[i][t.Var] = t.Coeff
			b -= t.Coeff * lo[t.Var] // shift by lower bounds
		}
		switch c.Rel {
		case LE:
			s.T[i][slack] = 1
			slack++
		case GE:
			s.T[i][slack] = -1
			slack++
		}
		rhs[i] = b
	}
	// Normalize rows to non-negative rhs, then set artificial basis.
	s.basis = make([]int, nc)
	s.beta = make([]float64, nc)
	for i := 0; i < nc; i++ {
		if rhs[i] < 0 {
			for j := 0; j < s.cols; j++ {
				s.T[i][j] = -s.T[i][j]
			}
			rhs[i] = -rhs[i]
		}
		art := s.artStart + i
		s.T[i][art] = 1
		s.basis[i] = art
		s.status[art] = basic
		s.beta[i] = rhs[i]
	}
	// Phase-1 reduced costs: cost 1 on artificials, priced out against
	// the all-artificial basis: d_j = -Σ_i T[i][j] for non-artificials.
	s.d = make([]float64, s.cols)
	for j := 0; j < s.artStart; j++ {
		sum := 0.0
		for i := 0; i < nc; i++ {
			sum += s.T[i][j]
		}
		s.d[j] = -sum
	}
}

// objective returns the current phase objective value implied by beta.
func (s *refSimplex) objective() float64 {
	obj := 0.0
	for i, b := range s.basis {
		obj += s.phaseCost(b) * s.beta[i]
	}
	for j := 0; j < s.cols; j++ {
		if s.status[j] == atUpper {
			obj += s.phaseCost(j) * s.ub[j]
		}
	}
	return obj
}

func (s *refSimplex) phaseCost(j int) float64 {
	if s.inPhase2 {
		return s.cost[j]
	}
	if j >= s.artStart {
		return 1
	}
	return 0
}

// enterPhase2 switches the reduced-cost row to the true objective and
// pins artificials at zero so they can never re-enter.
func (s *refSimplex) enterPhase2() {
	s.inPhase2 = true
	for j := s.artStart; j < s.cols; j++ {
		s.ub[j] = 0
		if s.status[j] == atUpper {
			s.status[j] = atLower
		}
	}
	// d_j = c_j - Σ_i c_basis(i) * T[i][j]
	for j := 0; j < s.cols; j++ {
		d := s.cost[j]
		for i := 0; i < s.rows; i++ {
			cb := s.cost[s.basis[i]]
			if cb != 0 {
				d -= cb * s.T[i][j]
			}
		}
		s.d[j] = d
	}
	s.degenerate = 0
}

// run iterates the simplex until optimality, unboundedness, or the
// iteration limit. It returns false only when the limit was hit.
func (s *refSimplex) run() bool {
	for {
		if s.iters >= s.maxIter {
			return false
		}
		e := s.chooseEntering()
		if e < 0 {
			return true // optimal for this phase
		}
		s.iters++
		if !s.step(e) {
			s.unbounded = true
			return true
		}
	}
}

// chooseEntering picks a nonbasic column that improves the objective:
// at lower bound with negative reduced cost, or at upper bound with
// positive reduced cost. Dantzig's rule normally; Bland's rule (smallest
// index) after a run of degenerate pivots, which guarantees termination.
func (s *refSimplex) chooseEntering() int {
	useBland := s.refBland || s.degenerate > 2*(s.rows+4)
	best, bestScore := -1, lpEps
	for j := 0; j < s.cols; j++ {
		if s.status[j] == basic || s.ub[j] == 0 {
			continue // basic, or pinned at a fixed bound
		}
		var score float64
		switch s.status[j] {
		case atLower:
			score = -s.d[j]
		case atUpper:
			score = s.d[j]
		}
		if score > lpEps {
			if useBland {
				return j
			}
			if score > bestScore {
				bestScore = score
				best = j
			}
		}
	}
	return best
}

// step moves the entering variable as far as its own bound or the first
// blocking basic variable allows, performing either a bound flip or a
// pivot. It returns false when the problem is unbounded in this
// direction.
func (s *refSimplex) step(e int) bool {
	dir := 1.0 // entering increases from lower bound
	if s.status[e] == atUpper {
		dir = -1.0 // entering decreases from upper bound
	}
	// Max step before entering hits its opposite bound.
	tMax := s.ub[e]
	leave, leaveAt := -1, int8(atLower)
	t := tMax
	for i := 0; i < s.rows; i++ {
		a := dir * s.T[i][e]
		if a > lpEps {
			// Basic value decreases toward 0.
			lim := s.beta[i] / a
			if lim < t-lpEps || (lim < t+lpEps && better(s.basis, leave, i)) {
				if lim < 0 {
					lim = 0
				}
				t, leave, leaveAt = lim, i, atLower
			}
		} else if a < -lpEps {
			ubi := s.ub[s.basis[i]]
			if math.IsInf(ubi, 1) {
				continue
			}
			// Basic value increases toward its upper bound.
			lim := (ubi - s.beta[i]) / (-a)
			if lim < t-lpEps || (lim < t+lpEps && better(s.basis, leave, i)) {
				if lim < 0 {
					lim = 0
				}
				t, leave, leaveAt = lim, i, atUpper
			}
		}
	}
	if math.IsInf(t, 1) {
		return false
	}
	if t <= lpEps {
		s.degenerate++
	} else {
		s.degenerate = 0
	}

	if leave < 0 {
		// Bound flip: entering traverses to its other bound; basis intact.
		for i := 0; i < s.rows; i++ {
			s.beta[i] -= dir * t * s.T[i][e]
		}
		if s.status[e] == atLower {
			s.status[e] = atUpper
		} else {
			s.status[e] = atLower
		}
		return true
	}

	// Update basic values, then pivot the tableau on (leave, e).
	enteringVal := t
	if s.status[e] == atUpper {
		enteringVal = s.ub[e] - t
	}
	for i := 0; i < s.rows; i++ {
		if i != leave {
			s.beta[i] -= dir * t * s.T[i][e]
			if s.beta[i] < 0 && s.beta[i] > -1e-9 {
				s.beta[i] = 0
			}
		}
	}
	old := s.basis[leave]
	s.status[old] = leaveAt
	s.basis[leave] = e
	s.status[e] = basic
	s.beta[leave] = enteringVal
	s.pivot(leave, e)
	return true
}

// pivot performs the Gauss-Jordan elimination making column e the
// identity column of row r, and prices the reduced-cost row.
func (s *refSimplex) pivot(r, e int) {
	pr := s.T[r]
	p := pr[e]
	inv := 1 / p
	for j := 0; j < s.cols; j++ {
		pr[j] *= inv
	}
	pr[e] = 1 // exact
	for i := 0; i < s.rows; i++ {
		if i == r {
			continue
		}
		row := s.T[i]
		f := row[e]
		if f == 0 {
			continue
		}
		for j := 0; j < s.cols; j++ {
			row[j] -= f * pr[j]
		}
		row[e] = 0
	}
	f := s.d[e]
	if f != 0 {
		for j := 0; j < s.cols; j++ {
			s.d[j] -= f * pr[j]
		}
		s.d[e] = 0
	}
}

// values returns the shifted structural variable values.
func (s *refSimplex) values() []float64 {
	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		if s.status[j] == atUpper {
			x[j] = s.ub[j]
		}
	}
	for i, b := range s.basis {
		if b < s.nStruct {
			v := s.beta[i]
			if v < 0 {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}
