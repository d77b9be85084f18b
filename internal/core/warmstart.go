package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"clash/internal/query"
)

// warmSeed names the warm-start variants, in the order warmStart
// considers them (an earlier one wins a tie).
type warmSeed int

const (
	seedIncumbent warmSeed = iota
	seedGreedyMarginal
	seedGreedyAbsolute
	seedIndividual
	seedLocalSearch
	numSeeds
)

// warmReport is what one warm start did: how the incumbent repair went,
// which variant seeded the search (-1: none was feasible), its objective,
// and how many per-query child optimizations it ran.
type warmReport struct {
	matched, groups int
	repaired        bool
	seed            warmSeed
	obj             float64
	childSolves     int
}

// warmStart constructs a feasible solution that seeds the branch-and-
// bound incumbent. Several variants are built and the cheapest one is
// returned: (a) with Options.Reopt set, the repaired previous incumbent
// of the same eligibility regime: surviving groups keep their prior
// selection and added or changed groups take their cheapest compatible
// candidate, so a one-query churn step starts from a nearly optimal
// solution; (b) per (query, start) group the candidate with the smallest
// *marginal* cost given the steps committed by earlier groups (exploits
// sharing but can commit myopically), and the same by absolute cost; and,
// on cold starts only, (c) the union of the per-query optima, whose ILP
// objective is at most the summed per-query optima — so the solver
// always starts at or below the "Individual" baseline — and (d) a local
// search over the groups.
func (b *builder) warmStart() []float64 {
	var best []float64
	b.warm = warmReport{seed: -1, obj: math.Inf(1)}
	consider := func(seed warmSeed, ws []float64) {
		if ws == nil {
			return
		}
		if obj := b.model.ObjectiveOf(ws); obj < b.warm.obj {
			best, b.warm.obj, b.warm.seed = ws, obj, seed
		}
	}
	inc := b.warmStartFromIncumbent()
	consider(seedIncumbent, inc)
	consider(seedGreedyMarginal, b.warmStartWith(true))
	consider(seedGreedyAbsolute, b.warmStartWith(false))
	// The repaired incumbent is the previous churn step's (near-)optimal
	// joint solution; when it covers most groups, solving every query on
	// its own again, or re-deriving a seed by coordinate descent, would
	// dominate incremental re-optimization time for no bound improvement.
	// Both still run on cold starts — no Reopt, no incumbent yet, or one
	// that could not be repaired — and after heavy churn (less than half
	// the groups matched), which is where the Individual-baseline pin and
	// the deep sharing the greedy passes miss come from.
	if inc == nil || 2*b.warm.matched < b.warm.groups {
		consider(seedIndividual, b.warmStartFromIndividualPlans())
		consider(seedLocalSearch, b.warmStartLocalSearch())
	}
	if r := b.opts.Reopt; r != nil && !b.opts.reoptChild {
		r.noteWarmStart(b.warm)
	}
	return best
}

// warmStartFromIncumbent repairs the previous joint solve's selection
// under the same eligibility regime into a feasible solution for the
// current model. Groups whose stable identity (query name + start)
// survives churn keep their incumbent order when it still exists among
// the candidates; those are committed first — they were chosen together,
// so their partition decorations agree. New or changed groups are then
// placed, each on the candidate that adds the least cost among those
// compatible with everything committed so far, and the feeding orders
// are re-derived. Shared steps are paid once, so the result is priced
// exactly; nil is returned when nothing survived or the selection cannot
// be completed. b.warm records the coverage for the caller.
func (b *builder) warmStartFromIncumbent() []float64 {
	r := b.opts.Reopt
	if r == nil || b.opts.reoptChild {
		return nil
	}
	regime := b.opts.regime()
	b.warm.groups = len(b.tops)
	kept := make([]*DecoratedOrder, len(b.tops))
	for i, g := range b.tops {
		if key, ok := r.incumbentFor(regime, g.query, g.start); ok {
			if d := b.orderFor(key); d != nil && d.ForMIR == "" && d.Query.Name == g.query && d.Start == g.start {
				kept[i] = d
				b.warm.matched++
			}
		}
	}
	if b.warm.matched == 0 {
		return nil
	}
	vals := make([]float64, b.model.NumVars())
	st := newLSState(b)
	st.begin(vals)
	for _, d := range kept {
		if d != nil && !st.place(d) {
			return nil
		}
	}
	for i, g := range b.tops {
		if kept[i] == nil && !st.place(st.cheapest(g.orders, true)) {
			return nil
		}
	}
	if !st.closeFeeds(true) {
		return nil
	}
	b.warm.repaired = true
	return vals
}

// lsState is the scratch one selection is priced on. Everything is
// indexed by the builder's dense numbers — a step by its y variable, a
// store by its symbol — and reset through touched lists, not
// reallocated, making one selection evaluation a few thousand integer
// operations. Between begin and closeFeeds it carries the selection so
// far: the steps paid, the decoration each store is committed to, the
// MIRs that need feeding.
type lsState struct {
	b       *builder
	paid    []bool // per ILP variable
	touched []int32

	total float64
	// zCommit holds per store the committed decoration, -1 for none; nil
	// without consistency rows. committed lists the stores set.
	zCommit   []int32
	committed []int32
	// need is per store 1 once some committed order probes its MIR and 2
	// once closeFeeds fed it; needed lists the stores set.
	need    []uint8
	needed  []int32
	pending []int32
	vals    []float64 // when non-nil, the ILP assignment being written
}

func newLSState(b *builder) *lsState {
	s := &lsState{
		b:    b,
		paid: make([]bool, b.model.NumVars()),
		need: make([]uint8, b.nStores),
	}
	if !b.opts.NoPartitionConsistency {
		s.zCommit = filled(b.nStores)
	}
	return s
}

// begin starts an empty selection. When vals is non-nil the full ILP
// assignment is written into it as orders are committed.
func (s *lsState) begin(vals []float64) {
	for _, i := range s.touched {
		s.paid[i] = false
	}
	for _, st := range s.committed {
		s.zCommit[st] = -1
	}
	for _, st := range s.needed {
		s.need[st] = 0
	}
	s.touched, s.committed, s.needed = s.touched[:0], s.committed[:0], s.needed[:0]
	s.total, s.vals = 0, vals
}

// compatible reports whether d's partition decorations agree with the
// partitioning every store is committed to so far.
func (s *lsState) compatible(d *DecoratedOrder) bool {
	if s.zCommit == nil {
		return true
	}
	for i, ids := range d.elems {
		if i == 0 || ids.dec < 0 {
			continue
		}
		if c := s.zCommit[ids.store]; c >= 0 && c != ids.dec {
			return false
		}
	}
	return true
}

// marginal is the cost committing d would add: its steps nobody paid yet.
func (s *lsState) marginal(d *DecoratedOrder) float64 {
	m := 0.0
	for i, y := range d.ys {
		if !s.paid[y] {
			m += d.Steps[i].Cost
		}
	}
	return m
}

// cheapest returns the cheapest compatible candidate, the first of
// equals, nil when none is compatible: ranked by the cost committing it
// would add (marginal), or by its full cost as if nothing were shared.
func (s *lsState) cheapest(cands []*DecoratedOrder, marginal bool) *DecoratedOrder {
	var best *DecoratedOrder
	bestM := math.Inf(1)
	for _, d := range cands {
		if !s.compatible(d) {
			continue
		}
		m := d.Cost
		if marginal {
			m = s.marginal(d)
		}
		if m < bestM {
			best, bestM = d, m
		}
	}
	return best
}

// commit adds d to the selection: pays its unpaid steps, commits the
// stores it decorates, and notes the MIRs it probes.
func (s *lsState) commit(d *DecoratedOrder) {
	b := s.b
	for i, y := range d.ys {
		if !s.paid[y] {
			s.paid[y] = true
			s.touched = append(s.touched, y)
			s.total += d.Steps[i].Cost
			if s.vals != nil {
				s.vals[y] = 1
			}
		}
	}
	if s.vals != nil {
		s.vals[b.xVar[d.num]] = 1
	}
	for i, ids := range d.elems {
		if i == 0 {
			continue
		}
		if !d.Elems[i].MIR.IsBase() && s.need[ids.store] == 0 {
			s.need[ids.store] = 1
			s.needed = append(s.needed, ids.store)
		}
		if s.zCommit == nil || ids.dec < 0 || s.zCommit[ids.store] >= 0 {
			continue
		}
		s.zCommit[ids.store] = ids.dec
		s.committed = append(s.committed, ids.store)
		if s.vals != nil {
			s.vals[b.zVar[ids.dec]] = 1
		}
	}
}

// place commits d when it is a candidate compatible with the selection.
func (s *lsState) place(d *DecoratedOrder) bool {
	if d == nil || !s.compatible(d) {
		return false
	}
	s.commit(d)
	return true
}

// closeFeeds completes the selection with feeding orders: per (MIR,
// start) group of every MIR in use — closing over the MIRs the feeds
// themselves probe, a round at a time in MIR key order — the cheapest
// compatible candidate, ranked as in cheapest. False when some group has
// no compatible candidate left.
func (s *lsState) closeFeeds(marginal bool) bool {
	feedOf := s.b.feedOf
	for {
		s.pending = s.pending[:0]
		for _, st := range s.needed {
			if s.need[st] == 1 {
				s.pending = append(s.pending, st)
			}
		}
		if len(s.pending) == 0 {
			return true
		}
		// The feeding groups are numbered in MIR key order.
		slices.SortFunc(s.pending, func(a, b int32) int { return cmp.Compare(feedOf[a], feedOf[b]) })
		for _, st := range s.pending {
			s.need[st] = 2
			if feedOf[st] < 0 {
				continue
			}
			for _, orders := range s.b.feeds[feedOf[st]].byStart {
				if !s.place(s.cheapest(orders, marginal)) {
					return false
				}
			}
		}
	}
}

// warmStartLocalSearch runs coordinate-descent over the (query, start)
// groups: starting from the per-group cheapest candidates, each sweep
// re-picks every group's candidate to minimize the *total* objective
// given all other groups' current picks (shared steps are paid once;
// feeding orders are re-derived greedily per trial). Sweeps repeat until
// a fixpoint or the time budget is hit. Under heavy cross-query sharing
// this finds the deep prefix sharing the single-pass greedy misses — it
// is the solver's primary incumbent for the Fig. 9a regime.
func (b *builder) warmStartLocalSearch() []float64 {
	if len(b.queries) < 2 {
		return nil
	}
	budget := 3 * time.Second
	if tl := b.opts.Solver.TimeLimit; tl > 0 && tl/3 < budget {
		budget = tl / 3
	}
	deadline := time.Now().Add(budget)
	// DeterministicWarmStart swaps the wall clock for an evaluation
	// counter: repeated solves of the same model then explore identically
	// regardless of machine speed (reproducible churn benchmarks).
	evals, maxEvals := 0, 10000
	overBudget := func() bool {
		if b.opts.DeterministicWarmStart {
			return evals >= maxEvals
		}
		return time.Now().After(deadline)
	}

	// Initial assignment: per-group cheapest candidate.
	pick := make([]*DecoratedOrder, len(b.tops))
	for gi, g := range b.tops {
		cands := g.orders
		if len(cands) == 0 {
			return nil
		}
		best := cands[0]
		for _, d := range cands {
			if d.Cost < best.Cost {
				best = d
			}
		}
		pick[gi] = best
	}

	st := newLSState(b)
	cur := b.evalSelection(st, pick, nil)
	if math.IsInf(cur, 1) {
		return nil
	}
	for sweep := 0; sweep < 64; sweep++ {
		improved := false
		for gi, g := range b.tops {
			if overBudget() {
				sweep = 64
				break
			}
			old := pick[gi]
			bestD, bestObj := old, cur
			for _, d := range g.orders {
				if d == old {
					continue
				}
				pick[gi] = d
				evals++
				if obj := b.evalSelection(st, pick, nil); obj < bestObj-1e-9 {
					bestD, bestObj = d, obj
				}
			}
			pick[gi] = bestD
			if bestD != old {
				cur = bestObj
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	vals := make([]float64, b.model.NumVars())
	if obj := b.evalSelection(st, pick, vals); math.IsInf(obj, 1) {
		return nil
	}
	return vals
}

// evalSelection computes the exact ILP objective of a full top-level
// selection: the union of the picks' steps is paid once, feeding orders
// for every used MIR are chosen greedily by marginal cost (closing over
// MIRs used by feeds), and partition commitments must be consistent
// unless NoPartitionConsistency. Returns +Inf when the selection cannot
// be completed feasibly. When vals is non-nil the full ILP assignment is
// written into it (used once, for the final selection). pick holds one
// candidate per top-level group, in b.tops order.
func (b *builder) evalSelection(st *lsState, pick []*DecoratedOrder, vals []float64) float64 {
	st.begin(vals)
	for _, d := range pick {
		if !st.place(d) {
			return math.Inf(1)
		}
	}
	if !st.closeFeeds(true) {
		return math.Inf(1)
	}
	return st.total
}

// warmStartFromIndividualPlans solves each query in isolation and maps
// the union of the per-query selections onto this builder's variables.
// Decorated-order keys are canonical, so a single query's selections are
// a subset of the joint candidate space. The union's objective is at
// most the summed individual optima (shared steps only collapse), which
// pins the MQO incumbent to the Individual baseline from the start.
// warmStart builds it on cold starts only: once a repaired incumbent
// covers half the groups it never won the comparison, at one child
// optimization per query. With Options.Reopt set, per-query selections
// are cached under indivSig. A selection depends on prices, not only on
// structure, so unlike the candidate-structure key this one embeds the
// estimates version and the options: the cache serves the solves that
// share a snapshot (a step's restricted solve after its free one). The
// sub-solves are marked reoptChild: they share the memo, the structure
// cache and the solution cache without touching the joint incumbent or
// the cache counters.
func (b *builder) warmStartFromIndividualPlans() []float64 {
	if len(b.queries) < 2 {
		return nil
	}
	r := b.opts.Reopt
	child := b.opts
	child.reoptChild = true
	opt := NewOptimizer(child)

	// resolve maps cached selection keys onto this builder's decorated
	// orders; nil when any key is absent (candidate capped away).
	resolve := func(keys []string) []*DecoratedOrder {
		out := make([]*DecoratedOrder, 0, len(keys))
		for _, k := range keys {
			d := b.orderFor(k)
			if d == nil {
				return nil
			}
			out = append(out, d)
		}
		return out
	}
	freshKeys := func(q *query.Query) []string {
		b.warm.childSolves++
		p, err := opt.Optimize([]*query.Query{q}, b.rawEst)
		if err != nil {
			return nil
		}
		keys := make([]string, 0, len(p.Selected))
		for _, d := range p.Selected {
			keys = append(keys, d.Key())
		}
		return keys
	}

	vals := make([]float64, b.model.NumVars())
	for _, q := range b.queries {
		var sel []*DecoratedOrder
		sig := ""
		if r != nil {
			sig = b.indivSig(q)
			if keys, ok := r.indivLookup(q.Name, sig); ok {
				sel = resolve(keys)
			}
		}
		if sel == nil {
			keys := freshKeys(q)
			if keys == nil {
				return nil
			}
			if r != nil {
				r.indivStore(q.Name, sig, keys)
			}
			if sel = resolve(keys); sel == nil {
				return nil // candidate capped away in the joint model
			}
		}
		for _, d := range sel {
			vals[b.xVar[d.num]] = 1
			for _, y := range d.ys {
				vals[y] = 1
			}
			if b.opts.NoPartitionConsistency {
				continue
			}
			for i, ids := range d.elems {
				if i > 0 && ids.dec >= 0 {
					vals[b.zVar[ids.dec]] = 1
				}
			}
		}
	}
	// Cross-query partition conflicts make the union infeasible in the
	// strengthened formulation; Feasible rejects it then.
	if b.model.Feasible(vals, 1e-5) != nil {
		return nil
	}
	return vals
}

// warmStartWith builds one greedy selection, group by group in the
// builder's stable order and then the feeds; useMarginal chooses between
// marginal-cost and absolute-cost candidate ranking.
func (b *builder) warmStartWith(useMarginal bool) []float64 {
	vals := make([]float64, b.model.NumVars())
	st := newLSState(b)
	st.begin(vals)
	for _, g := range b.tops {
		// nil: no z-compatible candidate (capped groups)
		if !st.place(st.cheapest(g.orders, useMarginal)) {
			return nil
		}
	}
	if !st.closeFeeds(useMarginal) {
		return nil
	}
	if b.model.Feasible(vals, 1e-5) != nil {
		return nil
	}
	return vals
}
