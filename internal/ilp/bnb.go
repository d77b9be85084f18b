package ilp

import (
	"math"
	"math/bits"
	"slices"
)

// Options control the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the number of explored nodes of each independent
	// component (0 = default 5e6).
	MaxNodes int
	// WarmStart, when it has one value per variable and is feasible,
	// seeds the incumbent so the search starts with a strong bound.
	WarmStart []float64
	// Parallel is ignored; the search is serial.
	Parallel int
}

// tol is the integrality and feasibility tolerance of the search.
const tol = 1e-6

func (o *Options) fill() {
	if o.MaxNodes == 0 {
		o.MaxNodes = 5_000_000
	}
}

// Solve minimizes the model. For feasible models it returns a provably
// optimal solution unless the node limit interrupts, in which case
// Status is Limit and the best incumbent (if any) is returned. The
// result is a function of the model and the options alone.
//
// Models whose constraint graph decomposes into independent connected
// components are solved component-wise (a presolve step that makes
// workloads of mostly-unrelated queries, e.g. Fig. 9c/9d, near-linear).
//
// Solve runs on a fresh Workspace; a loop that solves again and again
// keeps one and calls its Solve.
func (m *Model) Solve(opt *Options) *Solution { return new(Workspace).Solve(m, opt) }

type searcher struct {
	m *Model
	o Options

	best    []float64
	bestObj float64
	nodes   int
	st      *structure
	hitLim  bool

	// Node evaluation state. Everything below and in searchArrays is a
	// function of (lo, hi) that setLo, setHi and undo keep current through
	// moved, so a node costs what changed since its parent, not a rescan of
	// the model. All of it is integer-valued: re-applying a change
	// backwards restores the parent's state to the bit.
	box  int64 // Σ boxTerm
	open int   // groups with decided == 0
	// cutoff is the fixed-point objective a node must stay below to be
	// worth exploring: the incumbent's, less the tolerance.
	cutoff int64
	tolQ   int64

	searchArrays

	// hook, when set by a test, observes every node evaluation.
	hook func(s *searcher, at hookPoint, v int)
}

// searchArrays is the searcher's memory: what a Workspace keeps from one
// solve to the next. init rewrites every array before the search reads
// it.
type searchArrays struct {
	lo, hi []float64
	trail  []trailEntry

	// varCons[v] lists the constraint indices touching variable v.
	varCons    [][]int
	varConsMem lists[int]

	decided []int32 // per group: members with lo > ½
	avail   []int32 // per group: members with hi > ½
	// Per-group minima, valid while the group's dirty bit is clear:
	// exclTerm is groupBound's add-on, (pickVar, pickCost) the cheapest
	// implied candidate pickBranchVar would dive into.
	exclTerm []int64
	pickVar  []int32
	pickCost []float64
	dirty    []uint8
	// freeFlat and freeForcing hold one bit per unfixed variable: those
	// that force nothing by st.rank (cheapest first), the others by
	// variable index.
	freeFlat    []uint64
	freeForcing []uint64

	// reusable buffers (hot path)
	pendingBuf []int
	inQueue    []bool
	changedBuf []int
	fixedBuf   []int
	forcedBy   []int32 // groupImplications: candidates forcing each variable
	touched    []int
	leafBuf    []float64
}

// reset readies s for a solve of m under o on its own arrays and st;
// everything else starts from zero.
func (s *searcher) reset(m *Model, o Options, st *structure) {
	*s = searcher{m: m, o: o, st: st, searchArrays: s.searchArrays}
}

// hookPoint names where in stepNode a test hook fires.
type hookPoint int

const (
	hookImplied  hookPoint = iota // implications at a fixpoint
	hookDeadEnd                   // a group has no candidate left
	hookBounded                   // bound computed
	hookBranched                  // v is pickBranchVar's choice
)

const (
	dirtyImplied uint8 = 1 << iota // implications must re-examine the group
	dirtyMinima                    // exclTerm and pick* are stale
)

func (s *searcher) observe(at hookPoint, v int) {
	if s.hook != nil {
		s.hook(s, at, v)
	}
}

type trailEntry struct {
	v      int
	lo, hi float64
}

func (s *searcher) solve() *Solution {
	if early := s.init(); early != nil {
		return early
	}
	s.dfs(-1)
	return s.finish()
}

// init prepares bounds, structure, and the warm-start incumbent, and runs
// root propagation. A non-nil return is an early terminal solution (a
// model root propagation proves infeasible).
func (s *searcher) init() *Solution {
	m := s.m
	n := len(m.Vars)
	s.lo = resize(s.lo, n)
	s.hi = resize(s.hi, n)
	for i := range n {
		s.lo[i], s.hi[i] = 0, 1
	}
	count := s.varConsMem.begin(n)
	for _, c := range m.Cons {
		for _, t := range c.Terms {
			count[t.Var]++
		}
	}
	s.varCons = s.varConsMem.carve()
	for ci, c := range m.Cons {
		for _, t := range c.Terms {
			s.varCons[t.Var] = append(s.varCons[t.Var], ci)
		}
	}
	s.bestObj = math.Inf(1)
	if s.st == nil {
		s.st = new(structure)
	}
	s.st.analyze(m)
	s.initEval()

	s.pendingBuf = slices.Grow(s.pendingBuf[:0], len(m.Cons))
	s.inQueue = resize(s.inQueue, len(m.Cons))
	clear(s.inQueue)
	s.forcedBy = resize(s.forcedBy, n)
	clear(s.forcedBy)
	s.leafBuf = resize(s.leafBuf, n)
	s.trail = slices.Grow(s.trail[:0], 2*n)
	s.changedBuf, s.fixedBuf, s.touched = s.changedBuf[:0], s.fixedBuf[:0], s.touched[:0]

	if len(s.o.WarmStart) == n && m.feasible(s.o.WarmStart, tol*10) {
		s.offer(s.o.WarmStart, m.ObjectiveOf(s.o.WarmStart))
	}

	// Root propagation: catches trivially infeasible models.
	if !s.propagate(-1) {
		return &Solution{Status: Infeasible}
	}
	return nil
}

// finish packages the search state into a Solution.
func (s *searcher) finish() *Solution {
	sol := &Solution{Nodes: s.nodes}
	switch {
	case s.best == nil && s.hitLim:
		sol.Status = Limit
	case s.best == nil:
		sol.Status = Infeasible
	case s.hitLim:
		sol.Status = Limit
		sol.Objective = s.bestObj
		sol.Values = s.best
	default:
		sol.Status = Optimal
		sol.Objective = s.bestObj
		sol.Values = s.best
	}
	return sol
}

// countNode charges one node against the budget. Returns false when
// the budget is spent (search must stop).
func (s *searcher) countNode() bool {
	if s.nodes >= s.o.MaxNodes {
		s.hitLim = true
		return false
	}
	s.nodes++
	return true
}

// stepNode runs the body of one node under the current bounds:
// propagation, group implications, bounding, and branch selection.
// Returns the variable to branch on, or -1 when the node is closed
// (pruned, infeasible, or a leaf whose incumbent was already offered).
func (s *searcher) stepNode(branched int) int {
	if !s.propagate(branched) {
		return -1
	}
	// Group-implication inference: a variable forced by every still-
	// available candidate of a choice group must be 1 regardless of the
	// choice. Alternate with linear propagation to a fixpoint.
	for {
		fixed, ok := s.groupImplications()
		if !ok {
			s.observe(hookDeadEnd, -1)
			return -1
		}
		if len(fixed) == 0 {
			break
		}
		for _, v := range fixed {
			if !s.propagate(v) {
				return -1
			}
		}
	}
	s.observe(hookImplied, -1)
	// Bound in fixed point: the box term and the per-group add-ons are
	// exact integer sums, so a node that pays the incumbent's steps ties
	// with it exactly and is closed here, whatever order they were paid in.
	s.observe(hookBounded, -1)
	if s.box+s.groupBound() >= s.cutoff {
		return -1
	}
	branchVar := s.pickBranchVar()
	s.observe(hookBranched, branchVar)
	if branchVar < 0 {
		// Every variable is fixed.
		s.finishLeaf()
	}
	return branchVar
}

// dfs explores the current node: propagate, bound, find or branch.
// branched is the variable fixed by the parent (-1 at the root).
func (s *searcher) dfs(branched int) {
	if s.hitLim {
		return
	}
	if !s.countNode() {
		return
	}

	mark := len(s.trail)
	defer s.undo(mark)

	branchVar := s.stepNode(branched)
	if branchVar < 0 {
		return
	}
	// Try 1 first: selection rows need one chosen candidate, and diving
	// on 1 finds incumbents fast for the CLASH structure.
	for _, val := range [2]float64{1, 0} {
		m2 := len(s.trail)
		s.fix(branchVar, val)
		s.dfs(branchVar)
		s.undo(m2)
		if s.hitLim {
			return
		}
	}
}

// finishLeaf offers the point a node with every variable fixed stands
// for, when it satisfies every row.
func (s *searcher) finishLeaf() {
	x := s.leafBuf
	copy(x, s.lo)
	if s.m.feasible(x, tol*10) {
		s.offer(x, s.m.ObjectiveOf(x))
	}
}

func (s *searcher) offer(x []float64, obj float64) {
	if obj < s.bestObj-tol {
		if s.best == nil {
			s.best = make([]float64, len(x))
		}
		// Snap to 0 and 1 exactly.
		for i, xv := range x {
			s.best[i] = math.Round(xv)
		}
		s.bestObj = s.m.ObjectiveOf(s.best)
		s.cutoff = s.st.objective(s.best) - s.tolQ
	}
}

// impliedCost is the additional objective a candidate x = 1 forces under
// the current bounds: the objective of its not-yet-paid forced variables
// plus its own coefficient. Diving into the cheapest implied candidate
// makes the first leaf a greedy solution, which prunes well.
func (s *searcher) impliedCost(x int) float64 {
	obj := s.st.obj
	add := obj[x]
	for _, y := range s.st.forces[x] {
		if s.lo[y] < 0.5 && obj[y] > 0 {
			add += obj[y]
		}
	}
	return add
}

// groupImplications fixes to 1 every variable forced by all available
// candidates of an undecided choice group. Returns the fixed variables
// and false when a group has no available candidate left. Only groups
// whose members or forced variables moved since they were last examined
// are looked at: an untouched group has nothing new to say.
func (s *searcher) groupImplications() (fixed []int, ok bool) {
	fixed = s.fixedBuf[:0]
	if s.open == 0 {
		return fixed, true
	}
	st := s.st
	for g, members := range st.groups {
		if s.dirty[g]&dirtyImplied == 0 || s.decided[g] > 0 {
			continue
		}
		s.dirty[g] &^= dirtyImplied
		n := s.avail[g]
		if n == 0 {
			return nil, false
		}
		// Intersect the forces of the available candidates.
		touched := s.touched[:0]
		for _, x := range members {
			if s.hi[x] > 0.5 {
				for _, y := range st.forces[x] {
					if s.forcedBy[y] == 0 {
						touched = append(touched, y)
					}
					s.forcedBy[y]++
				}
			}
		}
		ok = true
		for _, y := range touched {
			if ok && s.forcedBy[y] == n && s.lo[y] < 0.5 {
				if s.hi[y] < 0.5 {
					ok = false
				} else {
					s.setLo(y, 1)
					fixed = append(fixed, y)
				}
			}
			s.forcedBy[y] = 0
		}
		s.touched = touched[:0]
		if !ok {
			return nil, false
		}
	}
	s.fixedBuf = fixed[:0]
	return fixed, true
}

// refresh recomputes group g's cached minima under the current bounds:
// over its available candidates, the cheapest cost of the unpaid
// objective variables only g can force (exclTerm, in fixed point), and
// the candidate with the smallest implied cost (pickVar, pickCost).
func (s *searcher) refresh(g int) {
	st := s.st
	s.dirty[g] &^= dirtyMinima
	excl, cand, candCost := int64(math.MaxInt64), -1, math.Inf(1)
	for _, x := range st.groups[g] {
		if s.hi[x] < 0.5 {
			continue // excluded candidate
		}
		add, ic := int64(0), st.obj[x]
		for _, y := range st.forces[x] {
			if s.lo[y] < 0.5 && st.obj[y] > 0 {
				ic += st.obj[y]
				if st.exclusive[y] == g {
					add += st.qobj[y]
				}
			}
		}
		if add < excl {
			excl = add
		}
		if ic < candCost {
			cand, candCost = x, ic
		}
	}
	if cand < 0 {
		excl = 0
	}
	s.exclTerm[g], s.pickVar[g], s.pickCost[g] = excl, int32(cand), candCost
}

// groupBound returns the admissible add-on to the box bound under the
// current variable bounds: for each group with no member fixed to 1, the
// minimum over its still-available candidates of the cost of the
// group-exclusive objective variables the candidate forces that are not
// already paid (lo = 1 variables are in the box bound). Summing the
// per-group minima over exclusive variables never double counts.
func (s *searcher) groupBound() int64 {
	if s.open == 0 {
		return 0
	}
	total := int64(0)
	for g := range s.st.groups {
		if s.decided[g] > 0 {
			continue
		}
		if s.dirty[g]&dirtyMinima != 0 {
			s.refresh(g)
		}
		total += s.exclTerm[g]
	}
	return total
}

// pickBranchVar chooses an unfixed variable. Preference: the
// choice group with the fewest available candidates (most constrained
// first), picking the candidate with the smallest implied additional
// cost so diving yields a greedy solution. Models without recognized
// groups fall back to a constraint scan.
func (s *searcher) pickBranchVar() int {
	if s.st.valid {
		if v := s.pickFromGroups(); v >= 0 {
			return v
		}
	} else if v := s.pickFromEqRows(); v >= 0 {
		return v
	}
	// Fallback: any unfixed variable, cheapest implied cost first,
	// lowest index among equals. The variables that force nothing are kept
	// in that order already; the few others are compared one by one.
	best, bo := -1, math.Inf(1)
	for w, word := range s.freeForcing {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if ic := s.impliedCost(i); ic < bo {
				best, bo = i, ic
			}
		}
	}
	for w, word := range s.freeFlat {
		if word != 0 {
			i := int(s.st.byRank[w<<6|bits.TrailingZeros64(word)])
			if c := s.st.obj[i]; c < bo || (c == bo && i < best) {
				best = i
			}
			break
		}
	}
	return best
}

// pickFromGroups returns the cheapest implied candidate of the undecided
// group with the fewest available candidates, -1 when every group is
// decided.
func (s *searcher) pickFromGroups() int {
	if s.open == 0 {
		return -1
	}
	bestFree, bestVar, bestCost := int32(math.MaxInt32), -1, math.Inf(1)
	for g := range s.st.groups {
		if s.decided[g] > 0 {
			continue
		}
		if s.dirty[g]&dirtyMinima != 0 {
			s.refresh(g)
		}
		cand, candCost := int(s.pickVar[g]), s.pickCost[g]
		if cand < 0 {
			continue
		}
		if free := s.avail[g]; free < bestFree || (free == bestFree && candCost < bestCost) {
			bestFree, bestVar, bestCost = free, cand, candCost
		}
	}
	return bestVar
}

// pickFromEqRows is the generic most-constrained-equality heuristic for
// models without recognized choice groups.
func (s *searcher) pickFromEqRows() int {
	bestRowFree := math.MaxInt32
	bestVar := -1
	var bestCost float64
	for _, c := range s.m.Cons {
		if c.Rel != EQ {
			continue
		}
		free := 0
		lhsFixed := 0.0
		cand, candCost := -1, math.Inf(1)
		for _, t := range c.Terms {
			if s.hi[t.Var]-s.lo[t.Var] > tol {
				free++
				if ic := s.impliedCost(t.Var); ic < candCost {
					cand, candCost = t.Var, ic
				}
			} else {
				lhsFixed += t.Coeff * s.lo[t.Var]
			}
		}
		if free == 0 || cand < 0 {
			continue
		}
		if math.Abs(lhsFixed-c.RHS) < tol && free > 0 {
			free += 1000
		}
		if free < bestRowFree || (free == bestRowFree && candCost < bestCost) {
			bestRowFree, bestVar, bestCost = free, cand, candCost
		}
	}
	return bestVar
}

func (s *searcher) fix(v int, val float64) {
	s.setLo(v, val)
	s.setHi(v, val)
}

func (s *searcher) setLo(v int, val float64) {
	if old := s.lo[v]; val > old {
		s.trail = append(s.trail, trailEntry{v, old, s.hi[v]})
		s.lo[v] = val
		s.moved(v, old, s.hi[v])
	}
}

func (s *searcher) setHi(v int, val float64) {
	if old := s.hi[v]; val < old {
		s.trail = append(s.trail, trailEntry{v, s.lo[v], old})
		s.hi[v] = val
		s.moved(v, s.lo[v], old)
	}
}

func (s *searcher) undo(mark int) {
	for len(s.trail) > mark {
		e := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		lo, hi := s.lo[e.v], s.hi[e.v]
		s.lo[e.v], s.hi[e.v] = e.lo, e.hi
		s.moved(e.v, lo, hi)
	}
}

// moved brings the node evaluation state up to date after variable v's
// bounds went from [lo, hi] to their current value, in either direction:
// forward from setLo and setHi, backward from undo. Every quantity is an
// integer, so the backward step restores exactly what the forward step
// replaced.
func (s *searcher) moved(v int, lo, hi float64) {
	st := s.st
	nlo, nhi := s.lo[v], s.hi[v]
	s.box += st.boxTerm(v, nlo, nhi) - st.boxTerm(v, lo, hi)
	if g := st.groupOf[v]; g >= 0 {
		if was, is := lo > 0.5, nlo > 0.5; was != is {
			if is {
				if s.decided[g]++; s.decided[g] == 1 {
					s.open--
				}
			} else if s.decided[g]--; s.decided[g] == 0 {
				s.open++
			}
		}
		if was, is := hi > 0.5, nhi > 0.5; was != is {
			if is {
				s.avail[g]++
			} else {
				s.avail[g]--
			}
		}
	}
	s.markFree(v, nhi-nlo > tol)
	for _, g := range st.dependents[v] {
		s.dirty[g] = dirtyImplied | dirtyMinima
	}
}

// markFree records whether variable v is unfixed.
func (s *searcher) markFree(v int, free bool) {
	set, bit := s.freeForcing, v
	if r := s.st.rank[v]; r >= 0 {
		set, bit = s.freeFlat, int(r)
	}
	if free {
		set[bit>>6] |= 1 << (bit & 63)
	} else {
		set[bit>>6] &^= 1 << (bit & 63)
	}
}

// initEval computes the node evaluation state of the model's declared
// bounds from scratch; from there on moved maintains it.
func (s *searcher) initEval() {
	st := s.st
	n, groups := len(s.lo), len(st.groups)
	s.box = 0
	for v := 0; v < n; v++ {
		s.box += st.boxTerm(v, s.lo[v], s.hi[v])
	}
	s.decided = resize(s.decided, groups)
	s.avail = resize(s.avail, groups)
	clear(s.decided)
	clear(s.avail)
	// Every group starts dirty: refresh writes its minima before they are
	// read.
	s.exclTerm = resize(s.exclTerm, groups)
	s.pickVar = resize(s.pickVar, groups)
	s.pickCost = resize(s.pickCost, groups)
	s.dirty = resize(s.dirty, groups)
	s.open = 0
	for g, members := range st.groups {
		s.dirty[g] = dirtyImplied | dirtyMinima
		for _, x := range members {
			if s.lo[x] > 0.5 {
				s.decided[g]++
			}
			if s.hi[x] > 0.5 {
				s.avail[g]++
			}
		}
		if s.decided[g] == 0 {
			s.open++
		}
	}
	s.freeFlat = resize(s.freeFlat, (len(st.byRank)+63)>>6)
	s.freeForcing = resize(s.freeForcing, (n+63)>>6)
	clear(s.freeFlat)
	clear(s.freeForcing)
	for v := 0; v < n; v++ {
		s.markFree(v, s.hi[v]-s.lo[v] > tol)
	}
	s.cutoff = math.MaxInt64
	s.tolQ = st.quantize(tol)
}

// propagate performs activity-based bound tightening to a fixpoint,
// seeded from the constraints touching the branched variable (all
// constraints when branched < 0). Returns false on infeasibility.
func (s *searcher) propagate(branched int) bool {
	pending := s.pendingBuf[:0]
	inQueue := s.inQueue
	if branched < 0 {
		for i := range s.m.Cons {
			pending = append(pending, i)
			inQueue[i] = true
		}
	} else {
		for _, ci := range s.varCons[branched] {
			if !inQueue[ci] {
				inQueue[ci] = true
				pending = append(pending, ci)
			}
		}
	}
	ok := true
	for head := 0; head < len(pending); head++ {
		ci := pending[head]
		inQueue[ci] = false
		c := &s.m.Cons[ci]

		changedVars, good := s.tightenOne(c)
		if !good {
			ok = false
			// Drain the queue flags before returning.
			for _, rest := range pending[head:] {
				inQueue[rest] = false
			}
			break
		}
		for _, v := range changedVars {
			for _, other := range s.varCons[v] {
				if !inQueue[other] {
					inQueue[other] = true
					pending = append(pending, other)
				}
			}
		}
	}
	s.pendingBuf = pending[:0]
	return ok
}

// tightenOne applies one constraint's activity bounds. For each sense it
// derives variable bound updates, rounded to integers.
func (s *searcher) tightenOne(c *Constraint) (changed []int, ok bool) {
	changed = s.changedBuf[:0]
	// Work with the two one-sided forms: lhs ≤ rhsUp and lhs ≥ rhsLo.
	up := math.Inf(1)
	lo := math.Inf(-1)
	switch c.Rel {
	case LE:
		up = c.RHS
	case GE:
		lo = c.RHS
	case EQ:
		up, lo = c.RHS, c.RHS
	}

	// span is the widest range one term's contribution can take.
	minAct, maxAct, span := 0.0, 0.0, 0.0
	for _, t := range c.Terms {
		tMin, tMax := t.Coeff*s.lo[t.Var], t.Coeff*s.hi[t.Var]
		if t.Coeff < 0 {
			tMin, tMax = tMax, tMin
		}
		minAct += tMin
		maxAct += tMax
		span = max(span, tMax-tMin)
	}
	if minAct > up+tol || maxAct < lo-tol {
		return nil, false
	}
	// With room for the widest term on both sides, no term's bound can
	// move: each one-sided room below is at least that term's own range.
	if up-minAct >= span && maxAct-lo >= span {
		return nil, true
	}

	for _, t := range c.Terms {
		v, a := t.Var, t.Coeff
		// Contribution bounds of this term under current bounds.
		var termMin, termMax float64
		if a > 0 {
			termMin, termMax = a*s.lo[v], a*s.hi[v]
		} else {
			termMin, termMax = a*s.hi[v], a*s.lo[v]
		}
		// Upper side: a*x ≤ up - (minAct - termMin)
		if !math.IsInf(up, 1) {
			room := up - (minAct - termMin)
			if a > 0 {
				nb := math.Floor(room/a + tol)
				if nb < s.hi[v]-tol {
					if nb < s.lo[v]-tol {
						return nil, false
					}
					s.setHi(v, nb)
					changed = append(changed, v)
				}
			} else {
				nb := math.Ceil(room/a - tol) // negative divisor: lower bound
				if nb > s.lo[v]+tol {
					if nb > s.hi[v]+tol {
						return nil, false
					}
					s.setLo(v, nb)
					changed = append(changed, v)
				}
			}
		}
		// Lower side: a*x ≥ lo - (maxAct - termMax)
		if !math.IsInf(lo, -1) {
			room := lo - (maxAct - termMax)
			if a > 0 {
				nb := math.Ceil(room/a - tol)
				if nb > s.lo[v]+tol {
					if nb > s.hi[v]+tol {
						return nil, false
					}
					s.setLo(v, nb)
					changed = append(changed, v)
				}
			} else {
				nb := math.Floor(room/a + tol)
				if nb < s.hi[v]-tol {
					if nb < s.lo[v]-tol {
						return nil, false
					}
					s.setHi(v, nb)
					changed = append(changed, v)
				}
			}
		}
		// Recompute activities incrementally after a change.
		var newMin, newMax float64
		if a > 0 {
			newMin, newMax = a*s.lo[v], a*s.hi[v]
		} else {
			newMin, newMax = a*s.hi[v], a*s.lo[v]
		}
		minAct += newMin - termMin
		maxAct += newMax - termMax
	}
	s.changedBuf = changed[:0]
	return changed, true
}
