package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"clash/internal/cost"
	"clash/internal/ilp"
	"clash/internal/mir"
	"clash/internal/query"
	"clash/internal/stats"
)

// builder constructs and solves the ILP of Algorithm 2.
type builder struct {
	opts    Options
	queries []*query.Query
	rawEst  *stats.Estimates
	est     *cost.Estimator
	mirs    []*mir.MIR

	model *ilp.Model

	orders     []*DecoratedOrder
	xVar       map[string]int // DecoratedOrder.Key() -> ILP var
	yVar       map[string]int // step key -> ILP var
	orderByKey map[string]*DecoratedOrder

	// cross-churn cache key components (set when opts.Reopt != nil)
	structFP string              // the options that shape candidate structure
	estVer   uint64              // the estimates snapshot, for the individual-plan cache
	fps      map[string]string   // query name -> mir.Fingerprint
	byRel    map[string][]string // relation -> fingerprints of the queries joining it

	// top-level candidate groups: query name -> start -> orders
	topGroups map[string]map[string][]*DecoratedOrder
	// feeding groups: MIR key -> start -> orders
	feedGroups map[string]map[string][]*DecoratedOrder

	// partition linking: store MIR key -> attr string -> z var
	zVar map[string]map[string]int

	// warm reports what the last warmStart call did.
	warm warmReport
}

func newBuilder(opts Options, queries []*query.Query, est *stats.Estimates) *builder {
	b := &builder{
		opts:       opts,
		queries:    queries,
		rawEst:     est,
		est:        opts.estimator(queries, est),
		model:      ilp.NewModel(),
		xVar:       map[string]int{},
		yVar:       map[string]int{},
		orderByKey: map[string]*DecoratedOrder{},
		topGroups:  map[string]map[string][]*DecoratedOrder{},
		feedGroups: map[string]map[string][]*DecoratedOrder{},
		zVar:       map[string]map[string]int{},
	}
	if r := opts.Reopt; r != nil {
		r.beginSolve(est)
		b.structFP = opts.structFingerprint()
		b.estVer = r.estVersion()
		b.fps = make(map[string]string, len(queries))
		b.byRel = map[string][]string{}
		for _, q := range queries {
			fp := mir.Fingerprint(q)
			b.fps[q.Name] = fp
			for _, rel := range q.Relations {
				b.byRel[rel] = append(b.byRel[rel], fp)
			}
		}
	}
	return b
}

func (b *builder) run() (*Plan, error) {
	t0 := time.Now()
	b.enumerateMIRs()
	tc := time.Now()
	if err := b.generateCandidates(); err != nil {
		return nil, err
	}
	candidates := time.Since(tc)
	b.buildModel()
	build := time.Since(t0)

	t1 := time.Now()
	solverOpts := b.opts.Solver
	if r := b.opts.Reopt; r != nil && solverOpts.Cache == nil {
		solverOpts.Cache = r.Cache
	}
	if ws := b.warmStart(); ws != nil {
		solverOpts.WarmStart = ws
	}
	warm := time.Since(t1)

	t2 := time.Now()
	sol := b.model.Solve(&solverOpts)
	solve := time.Since(t2)

	if sol.Status == ilp.Infeasible && b.opts.MaxCandidatesPerGroup > 0 {
		// Aggressive capping can drop the only partition-consistent
		// combinations; retry with the full candidate set.
		full := b.opts
		full.MaxCandidatesPerGroup = 0
		return newBuilder(full, b.queries, b.rawEst).run()
	}
	if sol.Status == ilp.Infeasible || sol.Status == ilp.Unbounded {
		return nil, fmt.Errorf("core: ILP %s (%d queries, %d candidates)\n%s", sol.Status, len(b.queries), len(b.orders), b.model)
	}
	if sol.Values == nil {
		return nil, fmt.Errorf("core: ILP hit limits with no incumbent (nodes=%d)", sol.Nodes)
	}

	plan := b.extract(sol)
	plan.Stats = ProblemStats{
		Queries:       len(b.queries),
		MIRs:          len(b.mirs),
		ProbeOrders:   len(b.orders),
		Variables:     b.model.NumVars(),
		Constraints:   b.model.NumCons(),
		BuildTime:     build,
		CandidateTime: candidates,
		WarmStartTime: warm,
		SolveTime:     solve,
		Nodes:         sol.Nodes,
		Status:        sol.Status,
		CacheHits:     sol.CacheHits,
		CacheMisses:   sol.CacheMisses,
	}
	if r := b.opts.Reopt; r != nil && !b.opts.reoptChild {
		r.noteIncumbent(b.opts.regime(), plan)
	}
	return plan, nil
}

func (b *builder) enumerateMIRs() {
	var all []*mir.MIR
	if r := b.opts.Reopt; r != nil && r.Memo != nil {
		all = r.Memo.Enumerate(b.queries)
	} else {
		all = mir.Enumerate(b.queries)
	}
	for _, m := range all {
		if !m.IsBase() {
			if !b.opts.mirsEnabled() {
				continue
			}
			if b.opts.MIREligible != nil && !b.opts.MIREligible(m.Key()) {
				continue
			}
		}
		b.mirs = append(b.mirs, m)
	}
}

// candidates enumerates probe orders for q, through the cross-churn memo
// when one is installed.
func (b *builder) candidates(q *query.Query) map[string][]*mir.ProbeOrder {
	if r := b.opts.Reopt; r != nil && r.Memo != nil {
		return r.Memo.Candidates(q, b.mirs)
	}
	return mir.Candidates(q, b.mirs)
}

// generateCandidates produces the priced decorated probe orders of every
// query and, transitively, the feeding orders of every MIR a surviving
// candidate probes. Structure and price are separate steps: the structure
// (which decorated orders exist, their step keys and χ verdicts) comes
// from the cross-churn cache when Options.Reopt is set, the prices are
// computed per solve from the current estimates and coefficients, and the
// cap cuts the priced copy — where it cuts depends on the prices.
func (b *builder) generateCandidates() error {
	neededMIRs := map[string]*mir.MIR{}
	for _, q := range b.queries {
		group := b.priced(b.structure(q, nil), q, nil)
		for start, dec := range group {
			if len(dec) == 0 {
				return fmt.Errorf("core: query %s has no probe order from %s (disconnected query graph?)", q.Name, start)
			}
			for _, d := range dec {
				b.noteMIRUse(d, neededMIRs)
			}
		}
		b.topGroups[q.Name] = group
	}

	// Feeding orders, processed until closure (feeds may use smaller MIRs).
	pending := mirKeysSorted(neededMIRs)
	done := map[string]bool{}
	for len(pending) > 0 {
		key := pending[0]
		pending = pending[1:]
		if done[key] {
			continue
		}
		done[key] = true
		m := neededMIRs[key]
		sub := m.Subquery()
		group := b.priced(b.structure(sub, m), sub, m)
		newNeeds := map[string]*mir.MIR{}
		for _, dec := range group {
			for _, d := range dec {
				b.noteMIRUse(d, newNeeds)
			}
		}
		b.feedGroups[key] = group
		for k, mm := range newNeeds {
			if !done[k] {
				if _, known := neededMIRs[k]; !known {
					neededMIRs[k] = mm
				}
				pending = append(pending, k)
			}
		}
	}
	return nil
}

// structure returns q's decorated candidates per start, uncapped and
// unpriced: the orders, their keys, their steps' keys and shapes. fed is
// the MIR the orders feed, nil for a top-level query. With Options.Reopt
// set the group comes from the cross-churn cache under structSig. Either
// way it is read-only: priced copies it.
func (b *builder) structure(q *query.Query, fed *mir.MIR) map[string][]*DecoratedOrder {
	r := b.opts.Reopt
	sig := ""
	if r != nil {
		sig = b.structSig(q, fed)
		if group, ok := r.structLookup(sig, fed != nil, !b.opts.reoptChild); ok {
			return group
		}
	}
	group := map[string][]*DecoratedOrder{}
	for start, orders := range b.candidates(q) {
		var dec []*DecoratedOrder
		for _, po := range orders {
			dec = append(dec, b.decorate(q, fed, start, po)...)
		}
		group[start] = dec
	}
	if r != nil {
		r.structStore(sig, group)
	}
	return group
}

// priced copies a structure group onto q and the MIR its orders feed,
// prices every step under the builder's estimates and coefficients
// (Eq. 1), and caps each start's candidates. The copies own their steps;
// the structure is not written.
func (b *builder) priced(structure map[string][]*DecoratedOrder, q *query.Query, fed *mir.MIR) map[string][]*DecoratedOrder {
	group := make(map[string][]*DecoratedOrder, len(structure))
	for start, orders := range structure {
		n := 0
		for _, d := range orders {
			n += len(d.Steps)
		}
		copies := make([]DecoratedOrder, len(orders))
		steps := make([]Step, n)
		dec := make([]*DecoratedOrder, len(orders))
		for i, d := range orders {
			c := &copies[i]
			*c = *d
			c.Query, c.Fed = q, fed
			k := len(d.Steps)
			c.Steps, steps = steps[:k:k], steps[k:]
			copy(c.Steps, d.Steps)
			b.price(c)
			dec[i] = c
		}
		group[start] = b.capGroup(dec)
	}
	return group
}

// price sets d's step costs and their sum (Eq. 1) from the step shapes.
func (b *builder) price(d *DecoratedOrder) {
	d.Cost = 0
	for i, s := range d.shapes {
		var c float64
		if s.materialize {
			c = b.est.Cardinality(s.rels, d.Query.Preds) / float64(s.j) * b.est.MaterializationUnit()
		} else {
			c = b.est.PriceStep(s.rels, s.j, s.knows, s.target, d.Query.Preds)
		}
		d.Steps[i].Cost = c
		d.Cost += c
	}
}

func mirKeysSorted(m map[string]*mir.MIR) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (b *builder) noteMIRUse(d *DecoratedOrder, out map[string]*mir.MIR) {
	for i, e := range d.Elems {
		if i > 0 && !e.MIR.IsBase() {
			out[e.MIR.Key()] = e.MIR
		}
	}
}

// capGroup keeps at most MaxCandidatesPerGroup cheapest candidates. It
// sorts dec in place.
func (b *builder) capGroup(dec []*DecoratedOrder) []*DecoratedOrder {
	max := b.opts.MaxCandidatesPerGroup
	if max <= 0 || len(dec) <= max {
		return dec
	}
	sort.Slice(dec, func(i, j int) bool { return dec[i].Cost < dec[j].Cost })
	return dec[:max]
}

// decorate applies partitioning to a probe order (Alg. 2, line 3),
// producing one DecoratedOrder per combination of partition candidates
// of the probed stores, each with its steps shaped for pricing. fed is
// the MIR the order feeds, nil for a top-level order.
func (b *builder) decorate(q *query.Query, fed *mir.MIR, start string, po *mir.ProbeOrder) []*DecoratedOrder {
	forMIR := ""
	if fed != nil {
		forMIR = fed.Key()
	}
	n := po.Len()
	choices := make([][]query.Attr, n)
	choices[0] = []query.Attr{{}}
	for i := 1; i < n; i++ {
		if b.opts.DisablePartitioning {
			choices[i] = []query.Attr{{}}
			continue
		}
		cands := mir.PartitionCandidates(po.Elems[i], b.queries)
		if len(cands) == 0 {
			cands = []query.Attr{{}}
		}
		choices[i] = cands
	}

	var out []*DecoratedOrder
	elems := make([]Element, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			d := &DecoratedOrder{
				Query:  q,
				ForMIR: forMIR,
				Start:  start,
				Elems:  append([]Element(nil), elems...),
			}
			d.key = d.buildKey()
			b.shapeSteps(d, fed)
			out = append(out, d)
			return
		}
		for _, attr := range choices[i] {
			elems[i] = Element{MIR: po.Elems[i], Partition: attr}
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// stepShape is what pricing a step reads besides the estimates and the
// coefficients: the relations whose join the step sends (or, for the
// materialization step, stores), the 1/j share, the probed store, and
// whether the probing tuple can compute that store's partitioning value
// (χ = 1). The Knows verdict is most of what pricing a step from scratch
// costs, and it depends on the query set, never on the estimates.
type stepShape struct {
	rels        []string    // sorted
	j           int         // prefix elements; the feeding order's elements when materializing
	target      cost.Target // the probed store, Rels unset
	knows       bool
	materialize bool
}

// shapeSteps derives the physical steps of a decorated order and their
// shapes; price turns the shapes into Eq. 1 costs. Step keys are
// canonical so equal steps across queries share one ILP variable.
func (b *builder) shapeSteps(d *DecoratedOrder, fed *mir.MIR) {
	par := b.opts.parallelism()
	prefix := map[string]bool{}
	var prefixRels []string
	for i, e := range d.Elems {
		if i > 0 {
			t := cost.Target{Rels: e.MIR.RelSet(), Partition: e.Partition, Parallelism: par}
			if b.opts.UniformChi {
				t.Parallelism = 1
				t.Partition = query.Attr{}
			}
			// The prefix identity includes the starting relation: the
			// partial result reached from arriving-R tuples ("R latest",
			// the paper's subquery q_R) is a different tuple stream than
			// the same relation set reached from arriving-S tuples, so
			// equal relation sets with different starts must not share a
			// step variable.
			prefixKey := d.Start + ":" + mir.New(prefixRels, d.Query.Preds).Key()
			key := prefixKey + "->" + e.MIR.Key() + "[" + e.Partition.String() + "]"
			d.Steps = append(d.Steps, Step{Key: key, PrefixKey: prefixKey, Target: e})
			knows := b.est.Knows(prefix, t)
			t.Rels = nil
			rels := slices.Clone(prefixRels)
			sort.Strings(rels)
			d.shapes = append(d.shapes, stepShape{rels: rels, j: i, target: t, knows: knows})
		}
		for _, r := range e.MIR.Rels {
			prefix[r] = true
		}
		prefixRels = append(prefixRels, e.MIR.Rels...)
	}
	if b.opts.MaterializationCost && fed != nil {
		// Inserting the feeding results into the MIR store: the full
		// subquery result per time unit, divided by the number of
		// starting relations contributing (each feeding order carries
		// its 1/|elems| share), partition always known.
		key := d.Start + ":" + mir.New(prefixRels, d.Query.Preds).Key() + "=>" + d.ForMIR
		d.Steps = append(d.Steps, Step{Key: key, PrefixKey: d.ForMIR})
		d.shapes = append(d.shapes, stepShape{rels: fed.Rels, j: len(d.Elems), materialize: true})
	}
}

// buildModel emits the ILP (Algorithm 2).
func (b *builder) buildModel() {
	// Variables: x per decorated order, y per distinct step, z per
	// (store, partition attribute) pair.
	addOrder := func(d *DecoratedOrder) {
		key := d.Key()
		if _, dup := b.xVar[key]; dup {
			return
		}
		b.orders = append(b.orders, d)
		b.orderByKey[key] = d
		b.xVar[key] = b.model.AddBinary("x:"+key, 0)
		for _, s := range d.Steps {
			if _, ok := b.yVar[s.Key]; !ok {
				b.yVar[s.Key] = b.model.AddBinary("y:"+s.Key, s.Cost)
			}
		}
		if b.opts.NoPartitionConsistency {
			return
		}
		for i, e := range d.Elems {
			if i == 0 || e.Partition == (query.Attr{}) {
				continue
			}
			byAttr := b.zVar[e.MIR.Key()]
			if byAttr == nil {
				byAttr = map[string]int{}
				b.zVar[e.MIR.Key()] = byAttr
			}
			if _, ok := byAttr[e.Partition.String()]; !ok {
				byAttr[e.Partition.String()] = b.model.AddBinary(
					"z:"+e.MIR.Key()+"["+e.Partition.String()+"]", 0)
			}
		}
	}
	for _, q := range b.queries {
		for _, s := range sortedKeys(b.topGroups[q.Name]) {
			for _, d := range b.topGroups[q.Name][s] {
				addOrder(d)
			}
		}
	}
	for _, key := range sortedKeys(b.feedGroups) {
		group := b.feedGroups[key]
		for _, s := range sortedKeys(group) {
			for _, d := range group[s] {
				addOrder(d)
			}
		}
	}

	// (1) Choice rows: exactly one decorated order per (query, start).
	for _, q := range b.queries {
		starts := make([]string, 0, len(b.topGroups[q.Name]))
		for s := range b.topGroups[q.Name] {
			starts = append(starts, s)
		}
		sort.Strings(starts)
		for _, s := range starts {
			var terms []ilp.Term
			for _, d := range b.topGroups[q.Name][s] {
				terms = append(terms, ilp.T(b.xVar[d.Key()], 1))
			}
			b.model.AddConstraint("choice:"+q.Name+"/"+s, ilp.EQ, 1, terms...)
		}
	}

	// (2)-(4) per order: cost row, feeding rows, partition links.
	for _, d := range b.orders {
		x := b.xVar[d.Key()]
		// Cost row, normalized by PCost for numerical conditioning:
		// -x + Σ (StepCost/PCost) y ≥ 0 forces every step of a chosen
		// order (equivalent to the paper's Eq. 3 pattern).
		if d.Cost > 0 {
			terms := []ilp.Term{ilp.T(x, -1)}
			for _, s := range d.Steps {
				if s.Cost > 0 {
					terms = append(terms, ilp.T(b.yVar[s.Key], s.Cost/d.Cost))
				}
			}
			b.model.AddConstraint("cost:"+d.Key(), ilp.GE, 0, terms...)
		}
		// Feeding rows: for each MIR element, each of the MIR's input
		// relations must run one feeding probe order. (The paper's
		// -k_j coefficient reads as a typo: with k_j>1 it would force
		// multiple redundant feeds; one per input relation suffices and
		// matches the surrounding prose. See DESIGN.md.)
		for i, e := range d.Elems {
			if i == 0 || e.MIR.IsBase() {
				continue
			}
			group := b.feedGroups[e.MIR.Key()]
			for _, r := range e.MIR.Rels { // sorted
				feeds := group[r]
				terms := []ilp.Term{ilp.T(x, -1)}
				for _, f := range feeds {
					terms = append(terms, ilp.T(b.xVar[f.Key()], 1))
				}
				b.model.AddConstraint("feed:"+e.MIR.Key()+"/"+r+"<-"+d.Key(), ilp.GE, 0, terms...)
			}
		}
		// Partition links: choosing the order commits each decorated
		// store to that partitioning.
		if !b.opts.NoPartitionConsistency {
			for i, e := range d.Elems {
				if i == 0 || e.Partition == (query.Attr{}) {
					continue
				}
				attr := e.Partition.String()
				b.model.AddConstraint("link:"+e.MIR.Key()+"["+attr+"]",
					ilp.GE, 0, ilp.T(b.zVar[e.MIR.Key()][attr], 1), ilp.T(x, -1))
			}
		}
	}

	// (5) One partitioning per store.
	storeKeys := make([]string, 0, len(b.zVar))
	for k := range b.zVar {
		storeKeys = append(storeKeys, k)
	}
	sort.Strings(storeKeys)
	for _, k := range storeKeys {
		attrs := make([]string, 0, len(b.zVar[k]))
		for a := range b.zVar[k] {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		var terms []ilp.Term
		for _, a := range attrs {
			terms = append(terms, ilp.T(b.zVar[k][a], 1))
		}
		b.model.AddConstraint("onepart:"+k, ilp.LE, 1, terms...)
	}
}

// extract converts the ILP solution into a Plan: the chosen top-level
// orders plus the feeding orders actually required, with consistent
// store partitionings.
func (b *builder) extract(sol *ilp.Solution) *Plan {
	plan := &Plan{
		Queries:    b.queries,
		Partitions: map[string]query.Attr{},
		Objective:  sol.Objective,
		opts:       b.opts,
	}

	chosen := func(d *DecoratedOrder) bool { return sol.IsOne(b.xVar[d.Key()]) }

	// Top-level selections (exactly one per group by the choice rows).
	var queue []*DecoratedOrder
	for _, q := range b.queries {
		starts := make([]string, 0, len(b.topGroups[q.Name]))
		for s := range b.topGroups[q.Name] {
			starts = append(starts, s)
		}
		sort.Strings(starts)
		for _, s := range starts {
			for _, d := range b.topGroups[q.Name][s] {
				if chosen(d) {
					plan.Selected = append(plan.Selected, d)
					queue = append(queue, d)
					break
				}
			}
		}
	}

	// Pull in the required feeding orders transitively. The solver may
	// have set extra x' variables whose steps were already paid; we keep
	// only one feed per (MIR, start), preferring the cheapest chosen one.
	feedDone := map[string]bool{}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		for i, e := range d.Elems {
			if i == 0 || e.MIR.IsBase() || feedDone[e.MIR.Key()] {
				continue
			}
			feedDone[e.MIR.Key()] = true
			group := b.feedGroups[e.MIR.Key()]
			rels := append([]string(nil), e.MIR.Rels...)
			sort.Strings(rels)
			for _, r := range rels {
				var pick *DecoratedOrder
				for _, f := range group[r] {
					if chosen(f) && (pick == nil || f.Cost < pick.Cost) {
						pick = f
					}
				}
				if pick == nil && len(group[r]) > 0 {
					// Defensive: the feeding constraints guarantee one;
					// fall back to the cheapest candidate.
					pick = group[r][0]
					for _, f := range group[r] {
						if f.Cost < pick.Cost {
							pick = f
						}
					}
				}
				if pick != nil {
					plan.Selected = append(plan.Selected, pick)
					queue = append(queue, pick)
				}
			}
		}
	}

	// Store partitionings from the selected orders' decorations (the z
	// constraints guarantee consistency).
	for _, d := range plan.Selected {
		for i, e := range d.Elems {
			if i == 0 {
				continue
			}
			if e.Partition != (query.Attr{}) {
				plan.Partitions[e.MIR.Key()] = e.Partition
			} else if _, ok := plan.Partitions[e.MIR.Key()]; !ok {
				plan.Partitions[e.MIR.Key()] = query.Attr{}
			}
		}
	}
	plan.HotKeys = b.hotKeys(plan.Partitions)
	return plan
}

// hotKeys resolves, per partitioned store, the heavy hitters of the
// partitioning attribute whose estimated stream share reaches a full
// mean partition (share >= 1/parallelism): hashing such a key pins at
// least an average task's worth of load onto one partition, so the
// compiled topology splits it over two tasks instead. Hashes are sorted
// so equal estimates produce byte-equal configs.
func (b *builder) hotKeys(partitions map[string]query.Attr) map[string][]uint64 {
	par := b.opts.parallelism()
	if par < 2 || b.opts.UniformChi {
		return nil
	}
	var out map[string][]uint64
	threshold := 1.0 / float64(par)
	for key, attr := range partitions {
		if attr == (query.Attr{}) {
			continue
		}
		d := b.rawEst.Degree(attr.Qualified())
		if d == nil {
			continue
		}
		var hot []uint64
		for i := range d.Top {
			if d.KeyShare(i) >= threshold {
				hot = append(hot, d.Top[i].Hash)
			}
		}
		if len(hot) == 0 {
			continue
		}
		sort.Slice(hot, func(i, j int) bool { return hot[i] < hot[j] })
		if out == nil {
			out = map[string][]uint64{}
		}
		out[key] = hot
	}
	return out
}
