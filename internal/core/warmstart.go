package core

import (
	"cmp"
	"math"
	"slices"
)

// warmSeed names the warm-start variants, in the order warmStart
// considers them (an earlier one wins a tie).
type warmSeed int

const (
	seedIncumbent warmSeed = iota
	seedGreedyMarginal
	seedGreedyAbsolute
	seedLocalSearch
	numSeeds
)

// warmReport is what one warm start did: how the incumbent repair went,
// which variant seeded the search (-1: none was feasible) and its
// objective.
type warmReport struct {
	matched, groups int
	repaired        bool
	seed            warmSeed
	obj             float64
}

// warmStart constructs a feasible solution that seeds the branch-and-
// bound incumbent. Several variants are built and the cheapest one is
// returned: (a) the repaired previous incumbent of the same eligibility
// regime, when the Reopt holds one: surviving groups keep their prior
// selection and added or changed groups take their cheapest compatible
// candidate, so a one-query churn step starts from a nearly optimal
// solution; (b) per (query, start) group the candidate with the smallest
// *marginal* cost given the steps committed by earlier groups (exploits
// sharing but can commit myopically), and the same by absolute cost; and,
// on cold starts only, (c) a local search over the groups.
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
	// joint solution; when it covers most groups, re-deriving a seed by
	// coordinate descent would dominate incremental re-optimization time
	// for no bound improvement. The search still runs on cold starts — no
	// incumbent yet, or one that could not be repaired — and
	// after heavy churn (less than half the groups matched), which is
	// where the deep sharing the greedy passes miss comes from.
	if inc == nil || 2*b.warm.matched < b.warm.groups {
		consider(seedLocalSearch, b.warmStartLocalSearch())
	}
	b.opts.Reopt.noteWarmStart(b.warm)
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
	vals := b.warmVector(seedIncumbent)
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

// newLSState readies the workspace's lsState for b's model: nothing
// selected, nothing paid.
func newLSState(b *builder) *lsState {
	s := &b.ls
	s.b = b
	s.paid = resize(s.paid, b.model.NumVars())
	s.need = resize(s.need, b.nStores)
	clear(s.paid)
	clear(s.need)
	s.zCommit = nil
	if !b.opts.NoPartitionConsistency {
		s.zCommit = b.filled(b.nStores)
	}
	s.touched, s.committed, s.needed, s.pending = s.touched[:0], s.committed[:0], s.needed[:0], s.pending[:0]
	s.total, s.vals = 0, nil
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

// maxLocalSearchEvals bounds the selections one local search evaluates.
const maxLocalSearchEvals = 10000

// warmStartLocalSearch runs coordinate-descent over the (query, start)
// groups: starting from the per-group cheapest candidates, each sweep
// re-picks every group's candidate to minimize the *total* objective
// given all other groups' current picks (shared steps are paid once;
// feeding orders are re-derived greedily per trial). Sweeps repeat until
// a fixpoint or maxLocalSearchEvals selection evaluations. The budget is
// counted, not timed, so repeated solves of the same model explore
// identically on any machine. Under heavy cross-query sharing this finds
// the deep prefix sharing the single-pass greedy misses — it is the
// solver's primary incumbent for the Fig. 9a regime.
func (b *builder) warmStartLocalSearch() []float64 {
	if len(b.queries) < 2 {
		return nil
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
	evals := 0
	for sweep := 0; sweep < 64; sweep++ {
		improved := false
		for gi, g := range b.tops {
			if evals >= maxLocalSearchEvals {
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

	vals := b.warmVector(seedLocalSearch)
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

// warmStartWith builds one greedy selection, group by group in the
// builder's stable order and then the feeds; useMarginal chooses between
// marginal-cost and absolute-cost candidate ranking.
func (b *builder) warmStartWith(useMarginal bool) []float64 {
	seed := seedGreedyAbsolute
	if useMarginal {
		seed = seedGreedyMarginal
	}
	vals := b.warmVector(seed)
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
