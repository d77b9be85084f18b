package ilp

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// Options control the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the number of explored nodes (0 = default 5e6).
	MaxNodes int
	// MaxLPIter bounds simplex iterations per LP solve (0 = default).
	MaxLPIter int
	// LPCellLimit disables LP relaxations when (constraints + variables)
	// × variables exceeds it (0 = default 1<<21): a measure of the model,
	// not the simplex tableau's rows × (variables + slacks + rows) cells.
	// Propagation-only search is used above the limit; the solver remains
	// exact, only bounds get weaker.
	LPCellLimit int
	// TimeLimit aborts the search returning the incumbent (0 = none).
	TimeLimit time.Duration
	// Tol is the integrality/feasibility tolerance (0 = 1e-6).
	Tol float64
	// WarmStart, when it has one value per variable and is feasible,
	// seeds the incumbent so the search starts with a strong bound.
	WarmStart []float64
	// Parallel, when > 1, evaluates independent branch-and-bound
	// subtrees (and independent components) on up to Parallel
	// goroutines. The search stays deterministic: sibling subtrees in a
	// wave share the wave-start incumbent and their results merge in
	// node-index order, so the explored tree is identical across runs
	// whenever TimeLimit is 0 (wall-clock deadlines are inherently
	// scheduling-sensitive). 0 or 1 means serial.
	Parallel int
	// Cache, when set, memoizes optimal solutions of independent
	// components keyed by a canonical serialization of the component
	// sub-model. Across churn steps, unchanged components hit the cache
	// and are not re-solved. Only provably Optimal component solutions
	// are cached, so the solver stays exact.
	Cache *SolutionCache
}

func (o *Options) fill() {
	if o.MaxNodes == 0 {
		o.MaxNodes = 5_000_000
	}
	if o.MaxLPIter == 0 {
		o.MaxLPIter = 20_000
	}
	if o.LPCellLimit == 0 {
		o.LPCellLimit = 1 << 21
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
}

// Solve minimizes the model. For pure-binary feasible models it returns a
// provably optimal solution unless a node/time limit interrupts, in which
// case Status is Limit and the best incumbent (if any) is returned.
//
// Models whose constraint graph decomposes into independent connected
// components are solved component-wise (a presolve step that makes
// workloads of mostly-unrelated queries, e.g. Fig. 9c/9d, near-linear).
func (m *Model) Solve(opt *Options) *Solution {
	o := Options{}
	if opt != nil {
		o = *opt
	}
	o.fill()
	if comps := components(m); len(comps) > 1 || o.Cache != nil {
		return solveByComponents(m, comps, o)
	}
	return solveOne(m, o)
}

// solveOne solves a single connected component, parallelizing subtree
// evaluation when requested.
func solveOne(m *Model, o Options) *Solution {
	s := &searcher{m: m, o: o}
	return s.run()
}

func (s *searcher) run() *Solution {
	if s.o.Parallel > 1 {
		return s.solveParallel()
	}
	return s.solve()
}

// components computes connected components of the variable-constraint
// graph; each is a list of variable indices. Variables without any
// constraint form singleton components.
func components(m *Model) [][]int {
	n := len(m.Vars)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, c := range m.Cons {
		if len(c.Terms) == 0 {
			continue
		}
		r0 := find(c.Terms[0].Var)
		for _, t := range c.Terms[1:] {
			r := find(t.Var)
			if r != r0 {
				parent[r] = r0
			}
		}
	}
	// Components in the order of their smallest variable, each listing
	// its variables ascending.
	compOf := make([]int32, n)
	for i := range compOf {
		compOf[i] = -1
	}
	var out [][]int
	for v := 0; v < n; v++ {
		r := find(v)
		if compOf[r] < 0 {
			compOf[r] = int32(len(out))
			out = append(out, nil)
		}
		out[compOf[r]] = append(out[compOf[r]], v)
	}
	return out
}

// solveByComponents solves each component independently and stitches the
// solutions together. Time and node budgets are shared across components.
// With Options.Cache set, components whose canonical serialization was
// solved to optimality before are answered from the cache without any
// search. With Options.Parallel > 1, components run concurrently on a
// bounded pool; results are merged in component-index order so the
// outcome is independent of goroutine scheduling.
func solveByComponents(m *Model, comps [][]int, o Options) *Solution {
	total := &Solution{Values: make([]float64, len(m.Vars))}
	deadline := time.Time{}
	if o.TimeLimit > 0 {
		deadline = time.Now().Add(o.TimeLimit)
	}
	subs := splitComponents(m, comps)
	solveComp := func(ci int) *Solution {
		vs, sub := comps[ci], subs[ci]
		var fp uint64
		var key []byte
		if o.Cache != nil {
			// Room for limitKey's suffix, so it extends key in place.
			fp, key = canonicalModel(sub, limitKeySuffix(len(vs)))
			if vals, obj, ok := o.Cache.lookup(fp, key, false); ok {
				return &Solution{Status: Optimal, Objective: obj, Values: vals, CacheHits: 1}
			}
		}
		so := o
		if len(comps) > 1 {
			so.Parallel = 0 // component-level parallelism only
		}
		if !deadline.IsZero() {
			so.TimeLimit = time.Until(deadline)
			if so.TimeLimit <= 0 {
				so.TimeLimit = time.Nanosecond
			}
		}
		so.WarmStart = sliceWarmStart(o.WarmStart, len(m.Vars), vs)
		// A node-capped search with no wall-clock deadline is a
		// deterministic function of (model, budget, warm start): its
		// stored incumbent replays byte-identically, so hard components
		// churned once don't re-pay the full budget every later step.
		var lfp uint64
		var lkey []byte
		if o.Cache != nil && so.TimeLimit == 0 {
			lfp, lkey = limitKey(key, &so, so.WarmStart)
			if vals, obj, ok := o.Cache.lookup(lfp, lkey, true); ok {
				return &Solution{Status: Limit, Objective: obj, Values: vals, CacheHits: 1}
			}
		}
		res := solveOne(sub, so)
		if o.Cache != nil {
			res.CacheMisses = 1
			if res.Status == Optimal {
				o.Cache.insert(fp, key, res.Values, res.Objective, false)
			} else if res.Status == Limit && lkey != nil && res.Values != nil {
				o.Cache.insert(lfp, lkey, res.Values, res.Objective, true)
			}
		}
		return res
	}

	results := make([]*Solution, len(comps))
	if o.Parallel > 1 && len(comps) > 1 {
		sem := make(chan struct{}, o.Parallel)
		done := make(chan int, len(comps))
		for ci := range comps {
			sem <- struct{}{}
			go func(ci int) {
				defer func() { <-sem; done <- ci }()
				results[ci] = solveComp(ci)
			}(ci)
		}
		for range comps {
			<-done
		}
	} else {
		for ci := range comps {
			results[ci] = solveComp(ci)
		}
	}

	for ci, vs := range comps {
		res := results[ci]
		total.Nodes += res.Nodes
		total.Iterations += res.Iterations
		total.CacheHits += res.CacheHits
		total.CacheMisses += res.CacheMisses
		if res.TimedOut {
			total.TimedOut = true
		}
		switch res.Status {
		case Infeasible, Unbounded:
			total.Status = res.Status
			total.Values = nil
			return total
		case Limit:
			total.Status = Limit
		}
		if res.Values == nil {
			total.Values = nil
			return total
		}
		// Sub-models number their variables in vs order, so
		// res.Values[i] is the value of vs[i].
		for i, v := range vs {
			total.Values[v] = res.Values[i]
		}
		total.Objective += res.Objective
	}
	return total
}

// splitComponents builds one sub-model per component. A sub-model
// numbers its variables in the component's order, and each constraint
// goes to the component of its first variable. Components list their
// variables ascending, so renumbering keeps a constraint's terms sorted
// and merged: they are copied into one slab shared by all sub-models,
// with no re-sort. A sub-model names what it holds by its parent's
// names. A model that is one component with no empty row is its own
// sub-model.
func splitComponents(m *Model, comps [][]int) []*Model {
	if len(comps) == 1 && !slices.ContainsFunc(m.Cons, func(c Constraint) bool { return len(c.Terms) == 0 }) {
		return []*Model{m} // the one component is the model, variables in order
	}
	compOf := make([]int, len(m.Vars))
	local := make([]int, len(m.Vars))
	for ci, vs := range comps {
		for i, v := range vs {
			compOf[v], local[v] = ci, i
		}
	}
	consOf := make([][]int, len(comps))
	nterms := 0
	for c, con := range m.Cons {
		if len(con.Terms) == 0 {
			continue
		}
		ci := compOf[con.Terms[0].Var]
		consOf[ci] = append(consOf[ci], c)
		nterms += len(con.Terms)
	}
	slab := make([]Term, nterms)
	subs := make([]*Model, len(comps))
	for ci, vs := range comps {
		sub := &Model{
			Vars:  make([]Variable, len(vs)),
			Cons:  make([]Constraint, len(consOf[ci])),
			namer: componentNamer{parent: m, vars: vs, cons: consOf[ci]},
		}
		for i, v := range vs {
			sub.Vars[i] = m.Vars[v]
		}
		for k, c := range consOf[ci] {
			con := m.Cons[c]
			n := len(con.Terms)
			terms := slab[:n:n]
			slab = slab[n:]
			for i, t := range con.Terms {
				terms[i] = Term{Var: local[t.Var], Coeff: t.Coeff}
			}
			sub.Cons[k] = Constraint{Name: con.Name, Terms: normalize(terms), Rel: con.Rel, RHS: con.RHS}
		}
		subs[ci] = sub
	}
	return subs
}

// componentNamer names a sub-model's variables and constraints by the
// parent model's.
type componentNamer struct {
	parent     *Model
	vars, cons []int // the parent's index of each sub-model variable and constraint
}

func (n componentNamer) VarName(v int) string { return n.parent.VarName(n.vars[v]) }
func (n componentNamer) ConName(c int) string { return n.parent.ConName(n.cons[c]) }

// sliceWarmStart projects a full-model warm start onto one component's
// variable order. Returns nil when the warm start does not cover the
// model.
func sliceWarmStart(ws []float64, n int, vs []int) []float64 {
	if len(ws) != n {
		return nil
	}
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = ws[v]
	}
	return out
}

type searcher struct {
	m *Model
	o Options

	lo, hi []float64
	trail  []trailEntry

	// varCons[v] lists the constraint indices touching variable v.
	varCons [][]int

	best     []float64
	bestObj  float64
	nodes    int
	lpIters  int
	useLP    bool
	st       *structure
	deadln   time.Time
	hitLim   bool
	timedOut bool
	depth    int

	// Node evaluation state. Everything below is a function of (lo, hi)
	// that setLo, setHi and undo keep current through moved, so a node
	// costs what changed since its parent, not a rescan of the model.
	// All of it is integer-valued: re-applying a change backwards restores
	// the parent's state to the bit.
	box     int64   // Σ boxTerm over variables with a finite preferred bound
	boxInf  int     // variables whose preferred bound is infinite
	decided []int32 // per group: members with lo > ½
	avail   []int32 // per group: members with hi > ½
	open    int     // groups with decided == 0
	// Per-group minima, valid while the group's dirty bit is clear:
	// exclTerm is groupBound's add-on, (pickVar, pickCost) the cheapest
	// implied candidate pickBranchVar would dive into.
	exclTerm []int64
	pickVar  []int32
	pickCost []float64
	dirty    []uint8
	// freeFlat and freeForcing hold one bit per unfixed integer variable:
	// those that force nothing by st.rank (cheapest first), the others by
	// variable index.
	freeFlat    []uint64
	freeForcing []uint64
	// cutoff is the fixed-point objective a node must stay below to be
	// worth exploring: the incumbent's, less the tolerance.
	cutoff int64
	tolQ   int64

	// reusable buffers (hot path)
	pendingBuf []int
	inQueue    []bool
	changedBuf []int
	fixedBuf   []int
	forcedBy   []int32 // groupImplications: candidates forcing each variable
	touched    []int
	leafBuf    []float64
	// lp is the tableau every LP of this searcher reuses, sized by the
	// first; a parallel child starts with its own, empty.
	lp simplex

	// hook, when set by a test, observes every node evaluation.
	hook func(s *searcher, at hookPoint, v int)
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
// root propagation. A non-nil return is an early terminal solution
// (trivially infeasible or unbounded models).
func (s *searcher) init() *Solution {
	m := s.m
	n := len(m.Vars)
	s.lo = make([]float64, n)
	s.hi = make([]float64, n)
	for i, v := range m.Vars {
		s.lo[i], s.hi[i] = v.Lower, v.Upper
	}
	s.varCons = make([][]int, n)
	for ci, c := range m.Cons {
		for _, t := range c.Terms {
			s.varCons[t.Var] = append(s.varCons[t.Var], ci)
		}
	}
	s.bestObj = math.Inf(1)
	s.st = analyze(m)
	s.initEval()
	cells := (len(m.Cons) + n) * n // LPCellLimit's measure, not the tableau's size
	s.useLP = cells <= s.o.LPCellLimit && cells > 0
	if s.o.TimeLimit > 0 {
		s.deadln = time.Now().Add(s.o.TimeLimit)
	}

	s.newBuffers()

	if len(s.o.WarmStart) == n && m.feasible(s.o.WarmStart, s.o.Tol*10) {
		s.offer(s.o.WarmStart, m.ObjectiveOf(s.o.WarmStart))
	}

	// Root propagation: catches trivially infeasible models.
	if !s.propagate(-1) {
		return &Solution{Status: Infeasible, Nodes: 0, Iterations: s.lpIters}
	}
	// Unbounded detection: pure-binary models are never unbounded; a
	// continuous variable with infinite bound and helpful objective is.
	for i, v := range m.Vars {
		if !v.Integer && (math.IsInf(s.lo[i], -1) && v.Obj > 0 || math.IsInf(s.hi[i], 1) && v.Obj < 0) {
			if r := s.lp.solve(m, s.lo, s.hi, s.o.MaxLPIter); r.status == Unbounded {
				return &Solution{Status: Unbounded, Iterations: s.lpIters}
			}
			break
		}
	}
	return nil
}

// finish packages the search state into a Solution.
func (s *searcher) finish() *Solution {
	sol := &Solution{Nodes: s.nodes, Iterations: s.lpIters, TimedOut: s.timedOut}
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

// countNode charges one node against the budget and the deadline.
// Returns false when a limit was hit (search must stop).
func (s *searcher) countNode() bool {
	s.nodes++
	if s.nodes > s.o.MaxNodes {
		s.hitLim = true
		return false
	}
	if !s.deadln.IsZero() && s.nodes%256 == 0 && time.Now().After(s.deadln) {
		s.hitLim = true
		s.timedOut = true
		return false
	}
	return true
}

// stepNode runs the body of one node under the current bounds:
// propagation, group implications, bounding, near-root LP, and branch
// selection. Returns open=false when the node is closed (pruned,
// infeasible, or a leaf whose incumbent was already offered); otherwise
// (bv, first) describe the branching variable and first branch value.
func (s *searcher) stepNode(branched int) (bv int, first float64, open bool) {
	if !s.propagate(branched) {
		return -1, 0, false
	}
	// Group-implication inference: a variable forced by every still-
	// available candidate of a choice group must be 1 regardless of the
	// choice. Alternate with linear propagation to a fixpoint.
	for {
		fixed, ok := s.groupImplications()
		if !ok {
			s.observe(hookDeadEnd, -1)
			return -1, 0, false
		}
		if len(fixed) == 0 {
			break
		}
		for _, v := range fixed {
			if !s.propagate(v) {
				return -1, 0, false
			}
		}
	}
	s.observe(hookImplied, -1)
	// Bound in fixed point: the box term and the per-group add-ons are
	// exact integer sums, so a node that pays the incumbent's steps ties
	// with it exactly and is closed here, whatever order they were paid in.
	lb, finite := s.boxBound()
	s.observe(hookBounded, -1)
	if finite && lb+s.groupBound() >= s.cutoff {
		return -1, 0, false
	}

	branchVar := -1
	var lpVals []float64
	// LP relaxations only near the root: they give strong bounds and
	// branching hints where they matter, while deep nodes rely on the
	// much cheaper propagation machinery. The pivot budget shrinks with
	// the tableau size so a single LP can never eat the time budget.
	if s.useLP && s.depth <= 2 {
		r := s.lp.solve(s.m, s.lo, s.hi, s.lpIterBudget())
		s.lpIters += r.iters
		switch r.status {
		case Infeasible:
			return -1, 0, false
		case Optimal:
			if r.obj >= s.bestObj-s.o.Tol {
				return -1, 0, false
			}
			lpVals = r.x
			branchVar = s.mostFractional(r.x)
			if branchVar < 0 {
				// LP solution is integral: incumbent.
				s.offer(r.x, r.obj)
				return -1, 0, false
			}
		}
	}
	if branchVar < 0 {
		branchVar = s.pickBranchVar()
		s.observe(hookBranched, branchVar)
	}
	if branchVar < 0 {
		// All integer variables fixed.
		s.finishLeaf()
		return -1, 0, false
	}

	// Branch order: follow the LP hint when present, else try 1 first
	// (selection rows need one chosen candidate; diving on 1 finds
	// incumbents fast for the CLASH structure).
	first = 1.0
	if lpVals != nil && lpVals[branchVar] < 0.5 {
		first = 0
	}
	return branchVar, first, true
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

	branchVar, first, open := s.stepNode(branched)
	if !open {
		return
	}
	for _, val := range []float64{first, 1 - first} {
		m2 := len(s.trail)
		s.fix(branchVar, val)
		s.depth++
		s.dfs(branchVar)
		s.depth--
		s.undo(m2)
		if s.hitLim {
			return
		}
	}
}

// finishLeaf handles a node where every integer variable is fixed:
// evaluate directly for pure-integer models, or optimize the continuous
// remainder by LP.
func (s *searcher) finishLeaf() {
	hasCont := false
	for _, i := range s.st.cont {
		if s.hi[i]-s.lo[i] > s.o.Tol {
			hasCont = true
			break
		}
	}
	if !hasCont {
		x := s.leafBuf
		copy(x, s.lo)
		if !s.m.feasible(x, s.o.Tol*10) {
			return
		}
		s.offer(x, s.m.ObjectiveOf(x))
		return
	}
	r := s.lp.solve(s.m, s.lo, s.hi, s.lpIterBudget())
	s.lpIters += r.iters
	if r.status == Optimal {
		s.offer(r.x, r.obj)
	}
}

func (s *searcher) offer(x []float64, obj float64) {
	if obj < s.bestObj-s.o.Tol {
		if s.best == nil {
			s.best = make([]float64, len(x))
		}
		copy(s.best, x)
		// Snap integers exactly.
		for i, integer := range s.st.integer {
			if integer {
				s.best[i] = math.Round(s.best[i])
			}
		}
		s.bestObj = s.m.ObjectiveOf(s.best)
		s.cutoff = s.st.objective(s.best) - s.tolQ
	}
}

// lpIterBudget caps simplex pivots at 2e8 / (rows × (variables + 2·rows)),
// kept between 50 and MaxLPIter. The divisor is the tableau's cell count,
// rows × (variables + slacks + rows), as if every row had a slack: what a
// dense pivot would update. A pivot here updates only the nonzeros it
// touches.
func (s *searcher) lpIterBudget() int {
	m := len(s.m.Cons)
	cols := len(s.m.Vars) + 2*m
	cells := m * cols
	if cells <= 0 {
		return s.o.MaxLPIter
	}
	budget := 200_000_000 / cells
	if budget > s.o.MaxLPIter {
		budget = s.o.MaxLPIter
	}
	if budget < 50 {
		budget = 50
	}
	return budget
}

// boxBound is the objective lower bound implied by the current bounds:
// each variable sits at the bound its coefficient prefers. It is a
// running value (moved keeps it); finite is false while some preferred
// bound is infinite and the box says nothing.
func (s *searcher) boxBound() (lb int64, finite bool) {
	return s.box, s.boxInf == 0
}

// mostFractional returns the integer variable farthest from integrality
// in x, or -1 when x is integral.
func (s *searcher) mostFractional(x []float64) int {
	best, bestDist := -1, s.o.Tol
	for i, v := range s.m.Vars {
		if !v.Integer {
			continue
		}
		f := x[i] - math.Floor(x[i])
		d := math.Min(f, 1-f)
		if d > bestDist {
			bestDist = d
			best = i
		}
	}
	return best
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

// pickBranchVar chooses an unfixed integer variable. Preference: the
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
	// Fallback: any unfixed integer variable, cheapest implied cost first,
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
			if s.hi[t.Var]-s.lo[t.Var] > s.o.Tol {
				free++
				if s.m.Vars[t.Var].Integer {
					if ic := s.impliedCost(t.Var); ic < candCost {
						cand, candCost = t.Var, ic
					}
				}
			} else {
				lhsFixed += t.Coeff * s.lo[t.Var]
			}
		}
		if free == 0 || cand < 0 {
			continue
		}
		if math.Abs(lhsFixed-c.RHS) < s.o.Tol && free > 0 {
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
	if st.obj[v] != 0 {
		was, wasInf := st.boxTerm(v, lo, hi)
		is, isInf := st.boxTerm(v, nlo, nhi)
		s.box += is - was
		if wasInf != isInf {
			if isInf {
				s.boxInf++
			} else {
				s.boxInf--
			}
		}
	}
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
	if st.integer[v] {
		s.markFree(v, nhi-nlo > s.o.Tol)
	}
	for _, g := range st.dependents[v] {
		s.dirty[g] = dirtyImplied | dirtyMinima
	}
}

// markFree records whether integer variable v is unfixed.
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
	s.box, s.boxInf = 0, 0
	for v := 0; v < n; v++ {
		if t, inf := st.boxTerm(v, s.lo[v], s.hi[v]); inf {
			s.boxInf++
		} else {
			s.box += t
		}
	}
	s.decided = make([]int32, groups)
	s.avail = make([]int32, groups)
	s.exclTerm = make([]int64, groups)
	s.pickVar = make([]int32, groups)
	s.pickCost = make([]float64, groups)
	s.dirty = make([]uint8, groups)
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
	s.freeFlat = make([]uint64, (len(st.byRank)+63)>>6)
	s.freeForcing = make([]uint64, (n+63)>>6)
	for v := 0; v < n; v++ {
		if st.integer[v] {
			s.markFree(v, s.hi[v]-s.lo[v] > s.o.Tol)
		}
	}
	s.cutoff = math.MaxInt64
	s.tolQ = st.quantize(s.o.Tol)
}

// newBuffers allocates the scratch space one searcher's hot path reuses.
func (s *searcher) newBuffers() {
	n := len(s.m.Vars)
	s.pendingBuf = make([]int, 0, len(s.m.Cons))
	s.inQueue = make([]bool, len(s.m.Cons))
	s.forcedBy = make([]int32, n)
	s.leafBuf = make([]float64, n)
	s.trail = make([]trailEntry, 0, 2*n)
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
// derives variable bound updates; integer bounds are rounded.
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

	minAct, maxAct := 0.0, 0.0
	for _, t := range c.Terms {
		if t.Coeff > 0 {
			minAct += t.Coeff * s.lo[t.Var]
			maxAct += t.Coeff * s.hi[t.Var]
		} else {
			minAct += t.Coeff * s.hi[t.Var]
			maxAct += t.Coeff * s.lo[t.Var]
		}
	}
	tol := s.o.Tol
	if minAct > up+tol || maxAct < lo-tol {
		return nil, false
	}

	for _, t := range c.Terms {
		v, a := t.Var, t.Coeff
		isInt := s.m.Vars[v].Integer
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
				nb := room / a
				if isInt {
					nb = math.Floor(nb + tol)
				}
				if nb < s.hi[v]-tol {
					if nb < s.lo[v]-tol {
						return nil, false
					}
					s.setHi(v, nb)
					changed = append(changed, v)
				}
			} else {
				nb := room / a // negative divisor: lower bound
				if isInt {
					nb = math.Ceil(nb - tol)
				}
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
				nb := room / a
				if isInt {
					nb = math.Ceil(nb - tol)
				}
				if nb > s.lo[v]+tol {
					if nb > s.hi[v]+tol {
						return nil, false
					}
					s.setLo(v, nb)
					changed = append(changed, v)
				}
			} else {
				nb := room / a
				if isInt {
					nb = math.Floor(nb + tol)
				}
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
