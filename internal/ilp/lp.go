package ilp

import "math"

// solve solves the LP relaxation of the model with per-variable bounds
// lo/hi (which override the model's bounds; branch-and-bound nodes pass
// tightened bounds). It returns the LP status, optimal objective, a
// primal solution, and the iteration count. Each searcher keeps one
// simplex: solve sizes its buffers on first use and reuses them on every
// later call, so an LP after the first allocates only the returned x.
//
// The method is a bounded-variable two-phase primal simplex in float64
// with tolerances: variables are shifted to [0, u-l], every row gets an
// artificial for a trivially feasible phase-1 start, and nonbasic
// variables are tracked at their lower or upper bound. Dantzig pricing
// with a Bland fallback after a run of degenerate pivots guarantees
// termination. The tableau is one row-major slab, and the work of an
// iteration follows its nonzeros: a pivot scales the pivot row once,
// collects its nonzero columns and updates the other rows and the
// reduced costs over those columns only; pricing runs row by row.
//
// Every float operation on a nonzero is the one the textbook dense
// tableau performs, in the same order, so the pivot sequence, the
// iteration count, the objective and x are those of the dense method bit
// for bit. Skipped terms are x − f·0, which is x up to the sign of a
// zero, and no comparison here can tell −0 from +0; the only divisions
// are by entries with |a| > lpEps.
func (s *simplex) solve(m *Model, lo, hi []float64, maxIter int) lpResult {
	n := len(m.Vars)
	for i := range m.Vars {
		if lo[i] > hi[i]+1e-12 {
			return lpResult{status: Infeasible}
		}
	}

	s.build(m, lo, hi, maxIter)

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
	s.values(x)
	for i := 0; i < n; i++ {
		v := lo[i] + x[i]
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

type lpResult struct {
	status Status
	obj    float64
	x      []float64
	iters  int
}

const (
	atLower int8 = iota
	atUpper
	basic
)

const lpEps = 1e-9

type simplex struct {
	rows, cols int
	nStruct    int // structural (model) variables; then slacks, then artificials
	artStart   int // first artificial column
	// width is the columns pricing and pivots visit: all of them in phase
	// 1, none of the artificials in phase 2, which pins those at 0 and
	// never reads their column or reduced cost again.
	width int

	T      []float64 // rows × cols tableau, row-major
	d      []float64 // reduced-cost row for the current phase
	cost   []float64 // phase-2 costs per column
	beta   []float64 // current values of basic variables (shifted space)
	basis  []int     // column basic in each row
	status []int8
	ub     []float64 // shifted upper bounds per column (may be +Inf)
	nz     []int     // the last pivot row's nonzero columns
	col    []float64 // step's copy of the entering column; pivot reads it too

	iters      int
	maxIter    int
	unbounded  bool
	inPhase2   bool
	degenerate int // consecutive degenerate pivots; triggers Bland's rule
}

// resize returns b with length n, reusing its array when it is large
// enough. The contents are stale: callers overwrite or clear them.
func resize[E any](b []E, n int) []E {
	if cap(b) < n {
		return make([]E, n)
	}
	return b[:n]
}

// build constructs the phase-1 tableau.
func (s *simplex) build(m *Model, lo, hi []float64, maxIter int) {
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
	s.width = s.cols
	s.iters, s.maxIter = 0, maxIter
	s.unbounded, s.inPhase2, s.degenerate = false, false, 0

	s.T = resize(s.T, nc*s.cols)
	clear(s.T)
	s.ub = resize(s.ub, s.cols)
	s.status = resize(s.status, s.cols)
	s.cost = resize(s.cost, s.cols)
	s.d = resize(s.d, s.cols)
	s.basis = resize(s.basis, nc)
	s.beta = resize(s.beta, nc)
	s.col = resize(s.col, nc)
	s.nz = resize(s.nz, s.cols)[:0]
	inf := math.Inf(1)
	for j := 0; j < nv; j++ {
		s.ub[j] = hi[j] - lo[j]
		s.status[j] = atLower
		s.cost[j] = m.Vars[j].Obj
	}
	for j := nv; j < s.cols; j++ {
		s.ub[j] = inf
		s.status[j] = atLower
		s.cost[j] = 0
	}

	// Rows shifted by the lower bounds and normalized to a non-negative
	// rhs, each with its artificial basic. Phase-1 reduced costs price
	// cost 1 on the artificials out against that basis,
	// d_j = -Σ_i T[i][j] for the other columns: s.d sums each column's
	// nonzeros (a constraint's terms, its slack) in row order, which is
	// the column-wise sum of every entry (adding a zero to a sum that
	// started at +0 never changes it).
	clear(s.d)
	slack := nv
	for i, c := range m.Cons {
		row := s.T[i*s.cols : (i+1)*s.cols]
		b := c.RHS
		for _, t := range c.Terms {
			row[t.Var] = t.Coeff
			b -= t.Coeff * lo[t.Var] // shift by lower bounds
		}
		sl := -1
		switch c.Rel {
		case LE:
			row[slack] = 1
			sl = slack
			slack++
		case GE:
			row[slack] = -1
			sl = slack
			slack++
		}
		if b < 0 {
			for _, t := range c.Terms {
				row[t.Var] = -row[t.Var]
			}
			if sl >= 0 {
				row[sl] = -row[sl]
			}
			b = -b
		}
		for _, t := range c.Terms {
			s.d[t.Var] += row[t.Var]
		}
		if sl >= 0 {
			s.d[sl] += row[sl]
		}
		art := s.artStart + i
		row[art] = 1
		s.basis[i] = art
		s.status[art] = basic
		s.beta[i] = b
	}
	for j := 0; j < s.artStart; j++ {
		s.d[j] = -s.d[j]
	}
}

// objective returns the current phase objective value implied by beta.
func (s *simplex) objective() float64 {
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

func (s *simplex) phaseCost(j int) float64 {
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
func (s *simplex) enterPhase2() {
	s.inPhase2 = true
	s.width = s.artStart
	for j := s.artStart; j < s.cols; j++ {
		s.ub[j] = 0
		if s.status[j] == atUpper {
			s.status[j] = atLower
		}
	}
	// d_j = c_j - Σ_i c_basis(i) * T[i][j], accumulated row by row in
	// the order of i the column-wise loop used.
	d := s.d[:s.width]
	copy(d, s.cost)
	for i := 0; i < s.rows; i++ {
		cb := s.cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		for j, a := range s.T[i*s.cols : i*s.cols+s.width] {
			d[j] -= cb * a
		}
	}
	s.degenerate = 0
}

// run iterates the simplex until optimality, unboundedness, or the
// iteration limit. It returns false only when the limit was hit.
func (s *simplex) run() bool {
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
func (s *simplex) chooseEntering() int {
	useBland := s.degenerate > 2*(s.rows+4)
	best, bestScore := -1, lpEps
	for j := 0; j < s.width; j++ {
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
func (s *simplex) step(e int) bool {
	dir := 1.0 // entering increases from lower bound
	if s.status[e] == atUpper {
		dir = -1.0 // entering decreases from upper bound
	}
	// Max step before entering hits its opposite bound.
	tMax := s.ub[e]
	leave, leaveAt := -1, int8(atLower)
	t := tMax
	col := s.col
	for i := range col {
		col[i] = s.T[i*s.cols+e]
	}
	for i, c := range col {
		a := dir * c
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
		for i, c := range col {
			s.beta[i] -= dir * t * c
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
	for i, c := range col {
		if i != leave {
			s.beta[i] -= dir * t * c
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

// better breaks ratio-test ties with Bland's rule (prefer the smaller
// basis index) to guarantee termination under degeneracy.
func better(basis []int, cur, cand int) bool {
	if cur < 0 {
		return true
	}
	return basis[cand] < basis[cur]
}

// pivot performs the Gauss-Jordan elimination making column e the
// identity column of row r, and prices the reduced-cost row. The pivot
// row is scaled once and its nonzero columns collected; the other rows
// and d change only in those columns.
func (s *simplex) pivot(r, e int) {
	pr := s.T[r*s.cols : r*s.cols+s.width]
	inv := 1 / pr[e]
	nz := s.nz[:0]
	for j, v := range pr {
		if v != 0 {
			pr[j] = v * inv
			nz = append(nz, j)
		}
	}
	pr[e] = 1 // exact
	s.nz = nz
	for i, f := range s.col {
		if i == r || f == 0 {
			continue
		}
		row := s.T[i*s.cols : i*s.cols+s.width]
		for _, j := range nz {
			row[j] -= f * pr[j]
		}
		row[e] = 0
	}
	if f := s.d[e]; f != 0 {
		for _, j := range nz {
			s.d[j] -= f * pr[j]
		}
		s.d[e] = 0
	}
}

// values writes the shifted structural variable values into x.
func (s *simplex) values(x []float64) {
	for j := 0; j < s.nStruct; j++ {
		x[j] = 0
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
}
