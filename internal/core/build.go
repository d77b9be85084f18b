package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
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
	syms    *symbols // the Reopt's

	// The model, the solver's memory and the per-solve arrays: the Reopt's
	// workspace or a fresh one.
	*workspace

	// cross-churn cache key components
	structFP string            // the options that shape candidate structure
	fps      map[string]string // query name -> mir.Fingerprint

	// top-level candidate groups: query name -> start -> orders
	topGroups map[string]map[string][]*DecoratedOrder
	// feeding groups: MIR key -> start -> orders, and the MIR fed
	feedGroups map[string]map[string][]*DecoratedOrder
	fed        map[string]*mir.MIR
	// sels holds each (sub)query's predicate selectivities, looked up
	// once per solve; knows the Knows verdict per step id.
	sels  map[*query.Query][]float64
	knows map[int32]bool

	// warm reports what the last warmStart call did.
	warm warmReport
}

// topGroup is one (query, start) group of top-level candidates.
type topGroup struct {
	query  string
	start  string
	orders []*DecoratedOrder
}

// feedGroup is the feeding candidates of one MIR: per start in sorted
// order, and per relation of the MIR in its (sorted) Rels order.
type feedGroup struct {
	byStart [][]*DecoratedOrder
	byRel   [][]*DecoratedOrder
}

// zDecor is one z variable: a store with one partitioning attribute.
type zDecor struct {
	store, dec int32
	mir        string
	attr       query.Attr
}

// newBuilderOn returns a builder whose solve runs on ws, which it resets,
// and reads and writes opts.Reopt, which must be set.
func newBuilderOn(ws *workspace, opts Options, queries []*query.Query, est *stats.Estimates) *builder {
	ws.reset()
	b := &builder{
		opts:       opts,
		queries:    queries,
		rawEst:     est,
		est:        cost.New(est, ws.allPreds(queries)),
		workspace:  ws,
		topGroups:  map[string]map[string][]*DecoratedOrder{},
		feedGroups: map[string]map[string][]*DecoratedOrder{},
		fed:        map[string]*mir.MIR{},
		sels:       map[*query.Query][]float64{},
		knows:      map[int32]bool{},
	}
	r := opts.Reopt
	b.syms = r.symbolTable()
	b.structFP = opts.structFingerprint()
	b.fps = make(map[string]string, len(queries))
	if b.byRel == nil {
		b.byRel = map[string][]*query.Query{}
	}
	for rel, qs := range b.byRel {
		b.byRel[rel] = qs[:0]
	}
	for _, q := range queries {
		b.fps[q.Name] = r.fingerprint(q)
		for _, rel := range q.Relations {
			b.byRel[rel] = append(b.byRel[rel], q)
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
	if ws := b.warmStart(); ws != nil {
		solverOpts.WarmStart = ws
	}
	warm := time.Since(t1)

	t2 := time.Now()
	sol := b.solver.Solve(&b.model, &solverOpts)
	solve := time.Since(t2)

	if sol.Status == ilp.Infeasible && b.opts.MaxCandidatesPerGroup > 0 {
		// Aggressive capping can drop the only partition-consistent
		// combinations; retry with the full candidate set.
		full := b.opts
		full.MaxCandidatesPerGroup = 0
		return newBuilderOn(b.workspace, full, b.queries, b.rawEst).run()
	}
	if sol.Status == ilp.Infeasible {
		return nil, b.unsolvable(sol.Status)
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
	}
	b.opts.Reopt.noteIncumbent(b.opts.regime(), plan)
	return plan, nil
}

// unsolvable is the error of a model without a solution; it prints the
// model, every row named.
func (b *builder) unsolvable(status ilp.Status) error {
	return fmt.Errorf("core: ILP %s (%d queries, %d candidates)\n%s", status, len(b.queries), len(b.orders), &b.model)
}

// enumerateMIRs collects the eligible MIRs of the queries: mir.Enumerate
// over them, merged from the Reopt's per-query lists.
func (b *builder) enumerateMIRs() {
	lists := make([][]*mir.MIR, len(b.queries))
	for i, q := range b.queries {
		lists[i] = b.opts.Reopt.mirsOf(q, b.fps[q.Name])
	}
	for _, m := range mir.Merge(lists...) {
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

// generateCandidates produces the priced decorated probe orders of every
// query and, transitively, the feeding orders of every MIR a surviving
// candidate probes. Structure and price are separate steps: the structure
// (which decorated orders exist, their step keys and χ verdicts) comes
// from the cross-churn cache, the prices are computed per solve from the
// current estimates, and the cap cuts the priced copy — where it cuts
// depends on the prices.
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
		b.fed[key] = m
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
// the MIR the orders feed, nil for a top-level query. The group is
// cached across solves under structSig and is read-only: priced copies
// it.
func (b *builder) structure(q *query.Query, fed *mir.MIR) map[string][]*DecoratedOrder {
	r := b.opts.Reopt
	sig := b.structSig(q, fed)
	if group, ok := r.structLookup(sig, b.syms, fed != nil); ok {
		return group
	}
	group := map[string][]*DecoratedOrder{}
	for start, orders := range mir.Candidates(q, b.mirs) {
		var dec []*DecoratedOrder
		for _, po := range orders {
			dec = append(dec, b.decorate(q, fed, start, po)...)
		}
		group[start] = dec
	}
	r.structStore(sig, b.syms, group)
	return group
}

// priced copies a structure group onto q and the MIR its orders feed,
// prices every step under the builder's estimates (Eq. 1), and caps
// each start's candidates. The copies own their steps and live in the
// workspace; the structure is not written.
func (b *builder) priced(structure map[string][]*DecoratedOrder, q *query.Query, fed *mir.MIR) map[string][]*DecoratedOrder {
	group := make(map[string][]*DecoratedOrder, len(structure))
	for start, orders := range structure {
		n := 0
		for _, d := range orders {
			n += len(d.Steps)
		}
		copies := b.copies.take(len(orders))
		steps := b.steps.take(n)
		dec := b.lists.take(len(orders))
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
	sels := b.sels[d.Query]
	if sels == nil {
		sels = b.est.Selectivities(d.Query.Preds)
		b.sels[d.Query] = sels
	}
	d.Cost = 0
	for i, s := range d.shapes {
		var c float64
		if s.materialize {
			c = b.est.CardinalityWith(s.rels, d.Query.Preds, sels) / float64(s.j)
		} else {
			c = b.est.PriceStep(s.rels, s.j, s.knows, s.target, d.Query.Preds, sels)
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

	prefixes := b.prefixes(q, start, po)
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
			d.id = b.syms.intern(b.syms.orders, d.key)
			b.shapeSteps(d, fed, prefixes)
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

// stepShape is what pricing a step reads besides the estimates: the
// relations whose join the step sends (or, for the materialization
// step, stores), the 1/j share, the probed store, and whether the
// probing tuple can compute that store's partitioning value (χ = 1).
// The Knows verdict is most of what pricing a step from scratch costs,
// and it depends on the query set, never on the estimates.
type stepShape struct {
	rels        []string    // sorted
	j           int         // prefix elements; the feeding order's elements when materializing
	target      cost.Target // the probed store, Rels unset
	knows       bool
	materialize bool
}

// stepPrefix is what step i of a probe order shares across the
// order's partition decorations: the partial result it sends (the first
// i elements) as a key, a sorted relation list and a set, and the probed
// MIR's relation set.
type stepPrefix struct {
	key    string
	rels   []string
	set    map[string]bool
	target map[string]bool
}

// prefixes works out po's step prefixes once for all its decorations:
// entry i (1 ≤ i < n) is step i's, entry n the whole order's, which the
// materialization step sends.
func (b *builder) prefixes(q *query.Query, start string, po *mir.ProbeOrder) []stepPrefix {
	n := po.Len()
	out := make([]stepPrefix, n+1)
	var rels []string
	set := map[string]bool{}
	for i := 1; i <= n; i++ {
		e := po.Elems[i-1]
		rels = append(rels, e.Rels...)
		for _, r := range e.Rels {
			set[r] = true
		}
		sorted := slices.Clone(rels)
		sort.Strings(sorted)
		// The prefix identity includes the starting relation: the
		// partial result reached from arriving-R tuples ("R latest",
		// the paper's subquery q_R) is a different tuple stream than
		// the same relation set reached from arriving-S tuples, so
		// equal relation sets with different starts must not share a
		// step variable.
		out[i] = stepPrefix{key: start + ":" + mir.New(rels, q.Preds).Key(), rels: sorted, set: maps.Clone(set)}
		if i < n {
			out[i].target = po.Elems[i].RelSet()
		}
	}
	return out
}

// shapeSteps derives the physical steps of a decorated order and their
// shapes from its probe order's prefixes; price turns the shapes into
// Eq. 1 costs. Step keys are canonical so equal steps across queries
// share one ILP variable.
func (b *builder) shapeSteps(d *DecoratedOrder, fed *mir.MIR, prefixes []stepPrefix) {
	par := b.opts.parallelism()
	d.elems = make([]elemIDs, len(d.Elems))
	d.elems[0] = elemIDs{store: -1, dec: -1} // the start is probed by no step
	for i, e := range d.Elems {
		if i == 0 {
			continue
		}
		d.elems[i] = elemIDs{store: b.syms.intern(b.syms.stores, e.MIR.Key()), dec: -1}
		if e.Partition != (query.Attr{}) {
			d.elems[i].dec = b.syms.intern(b.syms.decors, e.MIR.Key()+"["+e.Partition.String()+"]")
		}
		p := prefixes[i]
		t := cost.Target{Rels: p.target, Partition: e.Partition, Parallelism: par}
		if b.opts.UniformChi {
			t.Parallelism = 1
			t.Partition = query.Attr{}
		}
		key := p.key + "->" + e.MIR.Key() + "[" + e.Partition.String() + "]"
		id := b.syms.intern(b.syms.steps, key)
		d.Steps = append(d.Steps, Step{Key: key, PrefixKey: p.key, Target: e, id: id})
		// The key names the prefix's relations, the probed store and its
		// partitioning: all Knows reads besides the query set's
		// predicates, which are the builder's.
		knows, ok := b.knows[id]
		if !ok {
			knows = b.est.Knows(p.set, t)
			b.knows[id] = knows
		}
		t.Rels = nil
		d.shapes = append(d.shapes, stepShape{rels: p.rels, j: i, target: t, knows: knows})
	}
	if b.opts.MaterializationCost && fed != nil {
		// Inserting the feeding results into the MIR store: the full
		// subquery result per time unit, divided by the number of
		// starting relations contributing (each feeding order carries
		// its 1/|elems| share), partition always known.
		key := prefixes[len(d.Elems)].key + "=>" + d.ForMIR
		d.Steps = append(d.Steps, Step{Key: key, PrefixKey: d.ForMIR, id: b.syms.intern(b.syms.steps, key)})
		d.shapes = append(d.shapes, stepShape{rels: fed.Rels, j: len(d.Elems), materialize: true})
	}
}

// groupsInOrder lists the candidate groups in the builder's stable
// order: top-level groups by query, then start; feeding groups by MIR
// key, then start.
func (b *builder) groupsInOrder() {
	for _, q := range b.queries {
		group := b.topGroups[q.Name]
		for _, s := range sortedKeys(group) {
			b.tops = append(b.tops, topGroup{query: q.Name, start: s, orders: group[s]})
		}
	}
	keys := sortedKeys(b.feedGroups)
	b.feeds = resize(b.feeds, len(keys))
	stores := make([]int32, len(keys))
	for i, key := range keys {
		group, f := b.feedGroups[key], &b.feeds[i]
		f.byStart, f.byRel = f.byStart[:0], f.byRel[:0]
		for _, s := range sortedKeys(group) {
			f.byStart = append(f.byStart, group[s])
		}
		for _, r := range b.fed[key].Rels {
			f.byRel = append(f.byRel, group[r])
		}
		stores[i] = b.syms.intern(b.syms.stores, key)
	}
	_, _, nStores, _ := b.syms.sizes()
	b.feedOf = b.filled(nStores)
	for i, st := range stores {
		b.feedOf[st] = int32(i)
	}
}

// feedsOf returns the feeding group of a store, nil when it has none.
func (b *builder) feedsOf(store int32) *feedGroup {
	if b.feedOf[store] < 0 {
		return nil
	}
	return &b.feeds[b.feedOf[store]]
}

// orderFor returns the solve's order with the given key, nil when the
// key names none of them.
func (b *builder) orderFor(key string) *DecoratedOrder {
	id := b.syms.order(key)
	if id < 0 || int(id) >= len(b.orderOf) || b.orderOf[id] < 0 {
		return nil
	}
	return b.orders[b.orderOf[id]]
}

// buildModel emits the ILP (Algorithm 2). Its variables and rows are
// added unnamed; the model asks the builder for a name when it prints
// one.
func (b *builder) buildModel() {
	b.groupsInOrder()
	nOrders, nSteps, nStores, nDecors := b.syms.sizes()
	b.orderOf, b.yVar, b.zVar, b.nStores = b.filled(nOrders), b.filled(nSteps), b.filled(nDecors), nStores
	b.model.SetNamer(&modelNames{b: b})

	// Variables: x per decorated order, y per distinct step, z per
	// (store, partition attribute) pair.
	addOrder := func(d *DecoratedOrder) {
		if n := b.orderOf[d.id]; n >= 0 {
			d.num, d.ys = n, b.orders[n].ys // a second copy of an order: its variables
			return
		}
		d.num = int32(len(b.orders))
		b.orderOf[d.id] = d.num
		b.orders = append(b.orders, d)
		b.xVar = append(b.xVar, int32(b.model.AddBinary("", 0)))
		d.ys = b.ids.take(len(d.Steps))
		for i, s := range d.Steps {
			y := b.yVar[s.id]
			if y < 0 {
				y = int32(b.model.AddBinary("", s.Cost))
				b.yVar[s.id] = y
			}
			d.ys[i] = y
		}
		if b.opts.NoPartitionConsistency {
			return
		}
		for i, e := range d.Elems {
			ids := d.elems[i]
			if i == 0 || ids.dec < 0 || b.zVar[ids.dec] >= 0 {
				continue
			}
			b.zVar[ids.dec] = int32(b.model.AddBinary("", 0))
			b.zs = append(b.zs, zDecor{store: ids.store, dec: ids.dec, mir: e.MIR.Key(), attr: e.Partition})
		}
	}
	for _, g := range b.tops {
		for _, d := range g.orders {
			addOrder(d)
		}
	}
	for _, f := range b.feeds {
		for _, orders := range f.byStart {
			for _, d := range orders {
				addOrder(d)
			}
		}
	}

	rows, nterms := b.rowSizes()
	b.model.Grow(0, rows, nterms)
	var terms []ilp.Term
	add := func(ref conRef, rel ilp.Rel, rhs float64) {
		b.model.AddConstraint("", rel, rhs, terms...)
		b.cons = append(b.cons, ref)
	}

	// (1) Choice rows: exactly one decorated order per (query, start).
	for gi, g := range b.tops {
		terms = terms[:0]
		for _, d := range g.orders {
			terms = append(terms, ilp.T(int(b.xVar[d.num]), 1))
		}
		add(conRef{kind: conChoice, at: int32(gi)}, ilp.EQ, 1)
	}

	// (2)-(4) per order: cost row, feeding rows, partition links.
	for _, d := range b.orders {
		x := int(b.xVar[d.num])
		// Cost row, normalized by PCost for numerical conditioning:
		// -x + Σ (step cost/PCost) y ≥ 0 forces every step of a chosen
		// order (equivalent to the paper's Eq. 3 pattern).
		if d.Cost > 0 {
			terms = append(terms[:0], ilp.T(x, -1))
			for i, s := range d.Steps {
				if s.Cost > 0 {
					terms = append(terms, ilp.T(int(d.ys[i]), s.Cost/d.Cost))
				}
			}
			add(conRef{kind: conCost, at: d.num}, ilp.GE, 0)
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
			f := b.feedsOf(d.elems[i].store)
			for ri := range e.MIR.Rels { // sorted
				terms = append(terms[:0], ilp.T(x, -1))
				if f != nil {
					for _, fd := range f.byRel[ri] {
						terms = append(terms, ilp.T(int(b.xVar[fd.num]), 1))
					}
				}
				add(conRef{kind: conFeed, at: d.num, elem: int16(i), rel: int16(ri)}, ilp.GE, 0)
			}
		}
		// Partition links: choosing the order commits each decorated
		// store to that partitioning.
		if !b.opts.NoPartitionConsistency {
			for i := range d.Elems {
				if dec := d.elems[i].dec; i > 0 && dec >= 0 {
					terms = append(terms[:0], ilp.T(int(b.zVar[dec]), 1), ilp.T(x, -1))
					add(conRef{kind: conLink, at: d.num, elem: int16(i)}, ilp.GE, 0)
				}
			}
		}
	}

	// (5) One partitioning per store, stores by key and each store's
	// attributes by name.
	byName := make([]int, len(b.zs))
	for i := range byName {
		byName[i] = i
	}
	slices.SortFunc(byName, func(i, j int) int {
		if c := strings.Compare(b.zs[i].mir, b.zs[j].mir); c != 0 {
			return c
		}
		return b.zs[i].attr.Compare(b.zs[j].attr)
	})
	for k := 0; k < len(byName); {
		first := byName[k]
		terms = terms[:0]
		for ; k < len(byName) && b.zs[byName[k]].store == b.zs[first].store; k++ {
			terms = append(terms, ilp.T(int(b.zVar[b.zs[byName[k]].dec]), 1))
		}
		add(conRef{kind: conOnePart, at: int32(first)}, ilp.LE, 1)
	}
}

// rowSizes counts the rows buildModel emits and their terms, as it
// emits them: the model is sized once.
func (b *builder) rowSizes() (rows, terms int) {
	for _, g := range b.tops {
		rows, terms = rows+1, terms+len(g.orders)
	}
	for _, d := range b.orders {
		if d.Cost > 0 {
			rows, terms = rows+1, terms+1
			for _, s := range d.Steps {
				if s.Cost > 0 {
					terms++
				}
			}
		}
		for i, e := range d.Elems {
			if i == 0 {
				continue
			}
			if !e.MIR.IsBase() {
				f := b.feedsOf(d.elems[i].store)
				for ri := range e.MIR.Rels {
					rows, terms = rows+1, terms+1
					if f != nil {
						terms += len(f.byRel[ri])
					}
				}
			}
			if !b.opts.NoPartitionConsistency && d.elems[i].dec >= 0 {
				rows, terms = rows+1, terms+2
			}
		}
	}
	stores := map[int32]bool{}
	for _, z := range b.zs {
		stores[z.store] = true
	}
	return rows + len(stores), terms + len(b.zs)
}

// conRef says what one ILP row is: its kind and the group, order, zDecor,
// element and MIR relation it was emitted for — what its name is
// rendered from.
type conRef struct {
	kind      conKind
	elem, rel int16
	at        int32 // group (choice), order number (cost, feed, link) or zDecor (onepart)
}

type conKind uint8

const (
	conChoice conKind = iota
	conCost
	conFeed
	conLink
	conOnePart
)

// modelNames names the builder's ILP variables and rows for the model:
// "x:" order key, "y:" step key, "z:" store[attribute]; "choice:",
// "cost:", "feed:", "link:", "onepart:" rows. Only a printed model or a
// violated row reads them.
type modelNames struct {
	b    *builder
	vars []string // rendered on first use
}

func (n *modelNames) VarName(v int) string {
	if n.vars == nil {
		b := n.b
		n.vars = make([]string, b.model.NumVars())
		for _, d := range b.orders {
			n.vars[b.xVar[d.num]] = "x:" + d.Key()
			for i, s := range d.Steps {
				n.vars[d.ys[i]] = "y:" + s.Key
			}
		}
		for _, z := range b.zs {
			n.vars[b.zVar[z.dec]] = "z:" + z.mir + "[" + z.attr.String() + "]"
		}
	}
	return n.vars[v]
}

func (n *modelNames) ConName(c int) string {
	b, r := n.b, n.b.cons[c]
	switch r.kind {
	case conChoice:
		g := b.tops[r.at]
		return "choice:" + g.query + "/" + g.start
	case conCost:
		return "cost:" + b.orders[r.at].Key()
	case conFeed:
		d := b.orders[r.at]
		e := d.Elems[r.elem]
		return "feed:" + e.MIR.Key() + "/" + e.MIR.Rels[r.rel] + "<-" + d.Key()
	case conLink:
		e := b.orders[r.at].Elems[r.elem]
		return "link:" + e.MIR.Key() + "[" + e.Partition.String() + "]"
	}
	return "onepart:" + b.zs[r.at].mir
}

// extract converts the ILP solution into a Plan: the chosen top-level
// orders plus the feeding orders actually required, with consistent
// store partitionings.
func (b *builder) extract(sol *ilp.Solution) *Plan {
	plan := &Plan{
		Queries:     b.queries,
		Partitions:  map[string]query.Attr{},
		Objective:   sol.Objective,
		parallelism: b.opts.parallelism(),
	}

	chosen := func(d *DecoratedOrder) bool { return sol.IsOne(int(b.xVar[d.num])) }

	// Top-level selections (exactly one per group by the choice rows).
	var queue []*DecoratedOrder
	for _, g := range b.tops {
		for _, d := range g.orders {
			if chosen(d) {
				plan.Selected = append(plan.Selected, d)
				queue = append(queue, d)
				break
			}
		}
	}

	// Pull in the required feeding orders transitively. The solver may
	// have set extra x' variables whose steps were already paid; we keep
	// only one feed per (MIR, start), preferring the cheapest chosen one.
	feedDone := make([]bool, b.nStores)
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		for i, e := range d.Elems {
			ids := d.elems[i]
			if i == 0 || e.MIR.IsBase() || feedDone[ids.store] {
				continue
			}
			feedDone[ids.store] = true
			f := b.feedsOf(ids.store)
			if f == nil {
				continue
			}
			for _, group := range f.byRel { // by relation, sorted
				var pick *DecoratedOrder
				for _, fd := range group {
					if chosen(fd) && (pick == nil || fd.Cost < pick.Cost) {
						pick = fd
					}
				}
				if pick == nil && len(group) > 0 {
					// Defensive: the feeding constraints guarantee one;
					// fall back to the cheapest candidate.
					pick = group[0]
					for _, fd := range group {
						if fd.Cost < pick.Cost {
							pick = fd
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
	plan.Selected = ownCopies(plan.Selected)
	return plan
}

// ownCopies copies the selected orders, with their steps and step
// variables, out of the workspace, which the next solve overwrites.
func ownCopies(sel []*DecoratedOrder) []*DecoratedOrder {
	n := 0
	for _, d := range sel {
		n += len(d.Steps)
	}
	orders, steps, ys := make([]DecoratedOrder, len(sel)), make([]Step, n), make([]int32, n)
	out := make([]*DecoratedOrder, len(sel))
	for i, d := range sel {
		c := &orders[i]
		*c = *d
		k := len(d.Steps)
		c.Steps, steps = steps[:k:k], steps[k:]
		c.ys, ys = ys[:k:k], ys[k:]
		copy(c.Steps, d.Steps)
		copy(c.ys, d.ys)
		out[i] = c
	}
	return out
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
