package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"clash/internal/query"
	"clash/internal/topology"
)

// CompileOptions control plan-to-topology translation.
type CompileOptions struct {
	// Epoch stamps the produced config (Sec. VI-A).
	Epoch int64
	// Shared merges equal stores and probe-tree prefixes across plans.
	// With Shared=false every plan gets namespaced stores — the paper's
	// "independent" baselines (FI/SI).
	Shared bool
	// Parallelism overrides store parallelism (0 = plan's option).
	Parallelism int
}

// Compile translates one or more plans into a deployable topology config.
// Passing several per-query plans with Shared=true yields the paper's
// naive sharing baselines (FS/SS: common stores and probe-tree prefixes
// are executed once); a single multi-query plan yields CMQO.
func Compile(plans []*Plan, opts CompileOptions) (*topology.Config, error) {
	return new(Compiler).Compile(plans, opts)
}

// A Compiler compiles plan after plan, each compile by difference from
// the one before: it keeps the probe-tree nodes the last compile walked,
// each selected order's path and predicates, and the topology it
// returned. A compile still threads every selected order through the
// probe trees, in Compile's order, but an order it saw the step before
// reuses its path and predicates, only a new path gets a node and an
// edge, routing is re-derived only for a (store, edge) whose rules'
// predicates or store changed, and every store, spout, rule list and
// serves list that comes out equal to the last topology's is that
// topology's. So a churn step allocates what changed, and its topology
// equals Compile's of the same plans field for field, slice order
// included. What a compile returns is never written again: a topology
// shares unchanged parts with the one before, and both stay valid.
//
// The zero Compiler compiles fresh; a failed compile, or options that
// differ from the last compile's beyond the epoch, start it over. A
// Compiler is not safe for concurrent use.
type Compiler struct {
	c *compiler
}

// Compile compiles plans as Compile does, from what the last compile
// kept.
func (x *Compiler) Compile(plans []*Plan, opts CompileOptions) (*topology.Config, error) {
	if c := x.c; c == nil || c.rehashed || c.opts.Shared != opts.Shared || c.opts.Parallelism != opts.Parallelism {
		x.c = newCompiler(opts)
	}
	c := x.c
	c.opts.Epoch = opts.Epoch
	err := c.compile(plans)
	if err == nil && c.rehashed && c.gen > 1 {
		// Two paths' hashes collided on kept state, where a fresh
		// compile may name them the other way round: compile afresh.
		c = newCompiler(opts)
		x.c = c
		err = c.compile(plans)
	}
	if err != nil {
		x.c = nil
		return nil, err
	}
	return c.cfg, nil
}

func newCompiler(opts CompileOptions) *compiler {
	return &compiler{opts: opts, edges: map[topology.EdgeID]bool{}}
}

// size makes the maps a first compile of plans fills, large enough that
// they do not grow while it does.
func (c *compiler) size(plans []*Plan) {
	orders, steps := 0, 0
	for _, p := range plans {
		orders += len(p.Selected)
		for _, d := range p.Selected {
			steps += len(d.Elems) - 1
		}
	}
	c.roots = map[[2]string]*treeNode{}
	c.nodes = make(map[nodeKey]*treeNode, steps)
	c.orders = make(map[orderKey]*orderPath, orders)
	c.stores = make(map[topology.StoreID]*storeDraft, steps)
	c.spouts = map[string]*spoutDraft{}
	c.rules = make(map[ruleKey]*ruleDraft, steps+orders)
	c.fedStarts = map[fedKey]bool{}
	c.probed = map[string]bool{}
	c.mirOf = map[string]Element{}
}

// compile compiles plans into c.cfg.
func (c *compiler) compile(plans []*Plan) error {
	if c.gen++; c.nodes == nil {
		c.size(plans)
	}
	c.touched.stores, c.touched.spouts, c.touched.rules = c.touched.stores[:0], c.touched.spouts[:0], c.touched.rules[:0]
	clear(c.fedStarts)
	for _, p := range plans {
		ns := ""
		if !c.opts.Shared {
			ns = plansNamespace(p)
		}
		if err := c.addPlan(p, ns); err != nil {
			return err
		}
	}
	c.assignRouting()
	cfg := c.topology()
	c.sweep()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: compiled invalid topology: %w", err)
	}
	c.cfg = cfg
	return nil
}

// assignRouting computes, for every transfer into a partitioned store,
// the attribute the *sending* tuple can hash so that every matching
// stored partner is guaranteed to sit on that partition. An attribute is
// sound when an equality chain links it to the store's partitioning
// attribute using only predicates this probe applies (the rule's preds)
// or predicates every stored tuple already satisfies (the store's own
// preds). Chains through relations the partial result has not joined
// yet must NOT transfer the value: their predicates have not been
// applied, so equality is not established — routing by global attribute
// equivalence classes loses results (it conflates equalities from
// different queries sharing a store). When several rules consume the
// same edge, the transfer is delivered once, so the attribute must be
// sound for all of them; otherwise the emission broadcasts.
//
// A (store, edge) whose store and rules' predicates are the ones it was
// routed under at the last compile keeps its verdict.
func (c *compiler) assignRouting() {
	for _, l := range c.touched.rules {
		s := &c.stores[l.store].s
		if l.routedPart == s.Partition && sameSlice(l.routedStore, s.Preds) && l.samePredsRouted() {
			continue
		}
		l.route = routeFor(s, l.rules)
		l.routedPart, l.routedStore = s.Partition, s.Preds
		l.routedPreds = l.routedPreds[:0]
		for i := range l.rules {
			l.routedPreds = append(l.routedPreds, l.rules[i].Preds)
		}
	}
	apply := func(out []topology.Emission) {
		for i := range out {
			if out[i].To != "" {
				if l := c.rules[ruleKey{store: out[i].To, edge: out[i].Edge}]; l != nil {
					out[i].RouteBy = l.route
				}
			}
		}
	}
	for _, sp := range c.touched.spouts {
		apply(sp.out)
	}
	for _, l := range c.touched.rules {
		for i := range l.rules {
			apply(l.rules[i].Out)
		}
	}
}

// routeFor is the qualified attribute emissions into a store over one
// edge route by, given the rules consuming the edge; "" when no
// attribute is sound for all of them or the store is not partitioned.
func routeFor(s *topology.Store, rules []topology.Rule) string {
	if s.Partition == (query.Attr{}) {
		return ""
	}
	var soundBuf, commonBuf [8]query.Attr
	common := commonBuf[:0]
	probeRules := 0
	for i := range rules {
		if rules[i].Kind != topology.ProbeRule {
			continue
		}
		sound := soundBuf[:0]
		for _, p := range rules[i].Preds {
			probeSide := p.Left
			if slices.Contains(s.Rels, p.Left.Rel) {
				probeSide = p.Right
			}
			if !slices.Contains(sound, probeSide) && linked(rules[i].Preds, s.Preds, probeSide, s.Partition) {
				sound = append(sound, probeSide)
			}
		}
		if probeRules == 0 {
			common = append(common, sound...)
		} else {
			common = slices.DeleteFunc(common, func(a query.Attr) bool { return !slices.Contains(sound, a) })
		}
		probeRules++
	}
	if len(common) == 0 {
		return ""
	}
	return slices.MinFunc(common, query.Attr.Compare).Qualified()
}

// samePredsRouted reports whether the draft's rules carry the predicate
// slices it was last routed under, slice for slice; never on a new
// draft, which has rules and was not routed.
func (l *ruleDraft) samePredsRouted() bool {
	if len(l.routedPreds) != len(l.rules) {
		return false
	}
	for i := range l.rules {
		if !sameSlice(l.routedPreds[i], l.rules[i].Preds) {
			return false
		}
	}
	return true
}

// sameSlice reports whether a and b are the same slice: the same length
// over the same array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// linked reports whether an equality chain through the predicates of a
// and b joins attribute x to attribute y: the two share an equivalence
// class of the equality closure over both lists (an attribute no
// predicate names is alone in its class).
func linked(a, b []query.Predicate, x, y query.Attr) bool {
	if x == y {
		return true
	}
	var buf [16]query.Attr
	reach := append(buf[:0], x)
	for grown := true; grown; {
		grown = false
		for _, preds := range [2][]query.Predicate{a, b} {
			for _, p := range preds {
				l, r := slices.Contains(reach, p.Left), slices.Contains(reach, p.Right)
				if l == r {
					continue
				}
				next := p.Left
				if l {
					next = p.Right
				}
				if next == y {
					return true
				}
				reach = append(reach, next)
				grown = true
			}
		}
	}
	return false
}

func plansNamespace(p *Plan) string {
	names := make([]string, 0, len(p.Queries))
	for _, q := range p.Queries {
		names = append(names, q.Name)
	}
	sort.Strings(names)
	return strings.Join(names, "+") + "::"
}

// treeNode is one node of a probe tree: a store reached over a specific
// edge with a specific tuple prefix, or (store and inEdge empty) the root
// where a relation's raw tuples enter. path is the FNV-1a hash of the
// node's path, ns + "root:" + rel followed by "|" + key for every step
// from the root. gen is the last compile that walked the node, and rules
// the draft of the rules at its store and edge.
type treeNode struct {
	store  topology.StoreID
	inEdge topology.EdgeID
	path   uint64
	gen    uint64
	rules  *ruleDraft
}

// nodeKey names a tree node by its parent and the step key that reaches
// it: one node per path, shared by every order that walks it (Fig. 4).
type nodeKey struct {
	parent *treeNode
	step   string
}

// orderKey names a selected order within a compile's namespace: the
// order's key and its query, whose predicates the order's rules carry.
type orderKey struct {
	ns    string
	query *query.Query
	order string
}

// orderPath is what threading an order through the probe trees works
// out once: the node each step reaches, and the predicates the order
// applies there (preds[i] at nodes[i]).
type orderPath struct {
	nodes []*treeNode
	preds [][]query.Predicate
	gen   uint64
}

type ruleKey struct {
	store topology.StoreID
	edge  topology.EdgeID
}

type fedKey struct {
	store topology.StoreID
	start string
}

// storeDraft is a store as the current compile registers it, with the
// queries it serves.
type storeDraft struct {
	s      topology.Store
	serves []string
	gen    uint64
	// The topology's: whether a rule list of the store differs from the
	// last topology's, and how many the store has.
	changed bool
	lists   int
}

// spoutDraft is a spout's emissions as the current compile appends them.
type spoutDraft struct {
	rel string
	out []topology.Emission
	gen uint64
}

// ruleDraft is the rules of one store and edge as the current compile
// adds them, and the routing verdict of their edge: route, and what it
// was derived from.
type ruleDraft struct {
	store topology.StoreID
	edge  topology.EdgeID
	rules []topology.Rule // each rule's Out is reused from compile to compile
	gen   uint64
	out   []topology.Rule // the topology's

	route       string
	routedPart  query.Attr
	routedStore []query.Predicate
	routedPreds [][]query.Predicate
}

type compiler struct {
	cfg  *topology.Config // the last compile's
	opts CompileOptions
	gen  uint64 // compiles so far: what the current one walks carries it
	// rehashed is set once a path's edge was not its first name: state
	// with such a node is not kept.
	rehashed bool
	// keepDropped is a test hook: the topology keeps the last one's rule
	// lists that no selected order walks any more, where their store and
	// their emissions' targets stay.
	keepDropped bool

	// Kept from compile to compile while the next one walks them too.
	roots  map[[2]string]*treeNode // (namespace, relation) -> root
	nodes  map[nodeKey]*treeNode
	edges  map[topology.EdgeID]bool // the edges of the nodes
	orders map[orderKey]*orderPath

	// The topology's drafts, kept for their memory and their verdicts,
	// and the ones the current compile touched.
	stores  map[topology.StoreID]*storeDraft
	spouts  map[string]*spoutDraft
	rules   map[ruleKey]*ruleDraft
	touched struct {
		stores []*storeDraft
		spouts []*spoutDraft
		rules  []*ruleDraft
	}

	// fedStarts records the (MIR store, starting relation) pairs whose
	// feeding order is already installed. When several per-query plans
	// materialize the same intermediate result (FS/SS), only the first
	// plan's feeding orders are wired: a second feeding path for the same
	// (store, start) would insert every pair twice, and the paper's
	// sharing baselines execute common subplans exactly once.
	fedStarts map[fedKey]bool
	// addPlan's scratch.
	probed map[string]bool
	mirOf  map[string]Element
}

func (c *compiler) parallelism(p *Plan) int {
	if c.opts.Parallelism > 0 {
		return c.opts.Parallelism
	}
	return Options{StoreParallelism: p.parallelism}.parallelism()
}

// FNV-1a, 64 bits: the path hash of tree nodes.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// root returns the probe-tree root of the relation's raw tuples.
func (c *compiler) root(ns, rel string) *treeNode {
	k := [2]string{ns, rel}
	r := c.roots[k]
	if r == nil {
		r = &treeNode{path: fnvAdd(fnvAdd(fnvAdd(fnvOffset, ns), "root:"), rel)}
		c.roots[k] = r
	}
	r.gen = c.gen
	return r
}

// edgeAlphabet renders path hashes; it has no ':', so a probe-tree edge
// never collides with a "store:" or "ins:" edge.
const edgeAlphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz-_"

// pathEdge names the edge into a tree node after the node's path: an
// unchanged path keeps its edge from one compile to the next, so the
// runtime can keep what it compiled for the edge's rules. The name is the
// path hash in 11 characters, short because every delivered message looks
// its edge up by it. Two paths of one compile whose hashes collide are
// told apart by re-hashing the later one until its name is free.
func (c *compiler) pathEdge(path uint64) topology.EdgeID {
	for h := path; ; h = (h ^ 0xff) * fnvPrime {
		var b [11]byte
		for i, v := 0, h; i < len(b); i, v = i+1, v>>6 {
			b[i] = edgeAlphabet[v&63]
		}
		if id := topology.EdgeID(b[:]); !c.edges[id] {
			c.edges[id] = true
			return id
		}
		c.rehashed = true
	}
}

// storeID renders the (namespaced) store identity for an MIR key.
func storeID(ns, mirKey string) topology.StoreID {
	return topology.StoreID(ns + mirKey)
}

// addStore registers a store, unless the current compile did already:
// the first plan to register a store decides it.
func (c *compiler) addStore(id topology.StoreID, e Element, partition query.Attr, par int, split []uint64) {
	d := c.stores[id]
	if d == nil {
		d = &storeDraft{}
		c.stores[id] = d
	} else if d.gen == c.gen {
		return
	}
	d.gen, d.serves = c.gen, d.serves[:0]
	c.touched.stores = append(c.touched.stores, d)
	if d.s.ID != id || d.s.MIRKey != e.MIR.Key() {
		// Rels, Preds and Label are the MIR key's: a store seen before
		// keeps them.
		d.s = topology.Store{ID: id, MIRKey: e.MIR.Key(), Label: e.MIR.Label(), Rels: e.MIR.Rels, Preds: e.MIR.Preds}
	}
	d.s.Partition, d.s.Parallelism, d.s.SplitKeys = partition, par, split
}

// markServes records that the store serves the query.
func (c *compiler) markServes(id topology.StoreID, queryName string) {
	d := c.stores[id]
	if !slices.Contains(d.serves, queryName) {
		d.serves = append(d.serves, queryName)
	}
}

// spout returns the relation's spout draft, emptied by the current
// compile's first touch.
func (c *compiler) spout(rel string) *spoutDraft {
	d := c.spouts[rel]
	if d == nil {
		d = &spoutDraft{rel: rel}
		c.spouts[rel] = d
	}
	if d.gen != c.gen {
		d.gen, d.out = c.gen, d.out[:0]
		c.touched.spouts = append(c.touched.spouts, d)
	}
	return d
}

// ruleList returns the rule draft of a store and edge, emptied by the
// current compile's first touch. The store is one the current compile
// registered: every rule list is at a store its plan probes or feeds.
func (c *compiler) ruleList(store topology.StoreID, edge topology.EdgeID) *ruleDraft {
	k := ruleKey{store: store, edge: edge}
	l := c.rules[k]
	if l == nil {
		l = &ruleDraft{store: store, edge: edge}
		c.rules[k] = l
	}
	if l.gen != c.gen {
		l.gen, l.rules = c.gen, l.rules[:0]
		c.touched.rules = append(c.touched.rules, l)
	}
	return l
}

// addRule appends a rule without emissions to the draft.
func (l *ruleDraft) addRule(kind topology.RuleKind, preds []query.Predicate) {
	var out []topology.Emission
	if n := len(l.rules); n < cap(l.rules) {
		out = l.rules[:n+1][n].Out[:0]
	}
	l.rules = append(l.rules, topology.Rule{Kind: kind, Store: l.store, In: l.edge, Preds: preds, Out: out})
}

// addPlan wires all selected probe orders of the plan into the config.
func (c *compiler) addPlan(p *Plan, ns string) error {
	if len(p.Selected) == 0 {
		return nil
	}
	par := c.parallelism(p)

	// Register every store the plan touches. Input relations are always
	// materialized (Sec. V: "the input relations are always
	// materialized"), which also lets newly arriving queries reuse their
	// windowed history (Sec. VI-B).
	probed, mirOf := c.probed, c.mirOf
	clear(probed)
	clear(mirOf)
	for _, d := range p.Selected {
		for i, e := range d.Elems {
			if i > 0 || e.MIR.IsBase() {
				probed[e.MIR.Key()] = true
			}
		}
		if d.ForMIR != "" {
			probed[d.ForMIR] = true
		}
	}
	for _, d := range p.Selected {
		for _, e := range d.Elems {
			mirOf[e.MIR.Key()] = e
		}
		if d.Fed != nil {
			mirOf[d.ForMIR] = Element{MIR: d.Fed}
		}
	}
	for key := range probed {
		e, ok := mirOf[key]
		if !ok {
			return fmt.Errorf("core: plan references unknown MIR %q", key)
		}
		c.addStore(storeID(ns, key), e, p.Partitions[key], par, p.HotKeys[key])
	}

	// Spout store-edges: every probed base store is kept up to date with
	// its relation's raw tuples.
	for key := range probed {
		e := mirOf[key]
		if !e.MIR.IsBase() {
			continue
		}
		rel := e.MIR.Rels[0]
		sid := storeID(ns, key)
		edge := topology.EdgeID("store:" + ns + rel)
		sp := c.spout(rel)
		if !hasEmission(sp.out, edge, sid) {
			sp.out = append(sp.out, topology.Emission{Edge: edge, To: sid})
			c.ruleList(sid, edge).addRule(topology.StoreRule, nil)
		}
	}

	// Probe trees: walk each selected order, sharing nodes by the path
	// of step keys (Fig. 4). Feeding orders are deduplicated per
	// (fed store, starting relation) across plans.
	for _, d := range p.Selected {
		if d.ForMIR != "" {
			k := fedKey{store: storeID(ns, d.ForMIR), start: d.Start}
			if c.fedStarts[k] {
				continue
			}
			c.fedStarts[k] = true
		}
		if err := c.addOrder(d, ns); err != nil {
			return err
		}
	}

	// Reference counting input (Sec. VI-B): a top-level order serves its
	// query, a feeding order every query whose top-level order probes the
	// fed MIR (its own when there is none).
	for _, d := range p.Selected {
		if d.ForMIR == "" {
			c.markOrderServes(d, ns, d.Query.Name)
			continue
		}
		served := false
		for _, other := range p.Selected {
			if other.ForMIR != "" {
				continue
			}
			for i, e := range other.Elems {
				if i > 0 && e.MIR.Key() == d.ForMIR {
					c.markOrderServes(d, ns, other.Query.Name)
					served = true
					break
				}
			}
		}
		if !served {
			c.markOrderServes(d, ns, d.Query.Name)
		}
	}
	return nil
}

// markOrderServes records that the stores the order probes, and the one
// it feeds, serve the query.
func (c *compiler) markOrderServes(d *DecoratedOrder, ns, queryName string) {
	for i, e := range d.Elems {
		if i > 0 {
			c.markServes(storeID(ns, e.MIR.Key()), queryName)
		}
	}
	if d.ForMIR != "" {
		c.markServes(storeID(ns, d.ForMIR), queryName)
	}
}

// orderPath returns the order's nodes and predicates, worked out from
// its root when a compile first meets the order and kept while every
// compile selects it.
func (c *compiler) orderPath(d *DecoratedOrder, ns string, root *treeNode) *orderPath {
	k := orderKey{ns: ns, query: d.Query, order: d.Key()}
	op := c.orders[k]
	if op != nil {
		op.gen = c.gen
		return op
	}
	n := len(d.Elems) - 1
	op = &orderPath{nodes: make([]*treeNode, n), preds: make([][]query.Predicate, n), gen: c.gen}
	parent := root
	prefixRels := map[string]bool{}
	for _, r := range d.Elems[0].MIR.Rels {
		prefixRels[r] = true
	}
	for i := 1; i <= n; i++ {
		e := d.Elems[i]
		nk := nodeKey{parent: parent, step: d.Steps[i-1].Key}
		node := c.nodes[nk]
		if node == nil {
			path := fnvAdd(fnvAdd(parent.path, "|"), nk.step)
			node = &treeNode{store: storeID(ns, e.MIR.Key()), inEdge: c.pathEdge(path), path: path}
			c.nodes[nk] = node
		}
		op.nodes[i-1] = node
		op.preds[i-1] = d.Query.PredsBetween(prefixRels, e.MIR.RelSet())
		for _, r := range e.MIR.Rels {
			prefixRels[r] = true
		}
		parent = node
	}
	c.orders[k] = op
	return op
}

// addOrder threads one decorated order through the (shared) probe trees.
func (c *compiler) addOrder(d *DecoratedOrder, ns string) error {
	start := d.Elems[0]
	if !start.MIR.IsBase() {
		return fmt.Errorf("core: order %s starts at non-base element %s", d, start.MIR)
	}
	if len(d.Elems) < 2 {
		return fmt.Errorf("core: order %s has no probe steps", d)
	}
	rel := start.MIR.Rels[0]
	op := c.orderPath(d, ns, c.root(ns, rel))
	for i, node := range op.nodes {
		if node.gen != c.gen {
			// The compile's first walk over the node wires the transfer
			// from its parent.
			node.gen = c.gen
			node.rules = c.ruleList(node.store, node.inEdge)
			em := topology.Emission{Edge: node.inEdge, To: node.store}
			if i == 0 {
				sp := c.spout(rel)
				sp.out = append(sp.out, em)
			} else {
				c.attachEmission(op.nodes[i-1], op.preds[i-1], em)
			}
		}
		// Register (or reuse) the probe rule for this order's predicates.
		c.ensureProbeRule(node, op.preds[i])
	}

	// Terminal emission: sink for top-level orders, MIR store insert for
	// feeding orders.
	last, preds := op.nodes[len(op.nodes)-1], op.preds[len(op.preds)-1]
	if d.ForMIR == "" {
		c.attachEmission(last, preds, topology.Emission{Sink: d.Query.Name})
	} else {
		sid := storeID(ns, d.ForMIR)
		edge := topology.EdgeID("ins:" + ns + d.ForMIR)
		c.attachEmission(last, preds, topology.Emission{Edge: edge, To: sid})
		if l := c.ruleList(sid, edge); !slices.ContainsFunc(l.rules, func(r topology.Rule) bool { return r.Kind == topology.StoreRule }) {
			l.addRule(topology.StoreRule, nil)
		}
	}
	return nil
}

// ensureProbeRule makes sure the node's store has a probe rule for the
// incoming edge with exactly these predicates; multiple queries sharing a
// transfer keep separate rules when their predicates differ. It returns
// the rule.
func (c *compiler) ensureProbeRule(node *treeNode, preds []query.Predicate) *topology.Rule {
	l := node.rules
	for i := range l.rules {
		if r := &l.rules[i]; r.Kind == topology.ProbeRule && samePreds(r.Preds, preds) {
			return r
		}
	}
	l.addRule(topology.ProbeRule, preds)
	return &l.rules[len(l.rules)-1]
}

// attachEmission appends an emission to the probe rule at the node that
// carries the order's predicates there.
func (c *compiler) attachEmission(node *treeNode, preds []query.Predicate, em topology.Emission) {
	r := c.ensureProbeRule(node, preds)
	if em.Sink != "" {
		if !hasSink(r.Out, em.Sink) {
			r.Out = append(r.Out, em)
		}
	} else if !hasEmission(r.Out, em.Edge, em.To) {
		r.Out = append(r.Out, em)
	}
}

// topology assembles the compiled topology from the drafts. A store,
// spout, rule list or serves list equal to the last topology's is that
// topology's; a store whose rule lists all are keeps its ruleset map. A
// compile with no topology before it — every fresh Compile, and a
// Compiler's first — hands the drafts' lists to the topology instead of
// copying them: the next compile, if any, grows its own.
func (c *compiler) topology() *topology.Config {
	prev, first := c.cfg, c.cfg == nil
	if first {
		prev = &topology.Config{}
	}
	cfg := &topology.Config{
		Epoch:  c.opts.Epoch,
		Stores: make(map[topology.StoreID]*topology.Store, len(c.touched.stores)),
		Spouts: make(map[string]*topology.Spout, len(c.touched.spouts)),
		Rules:  make(map[topology.StoreID]map[topology.EdgeID][]topology.Rule, len(c.touched.stores)),
		Serves: make(map[topology.StoreID][]string, len(c.touched.stores)),
	}
	for _, d := range c.touched.stores {
		id := d.s.ID
		if old := prev.Stores[id]; old != nil && sameStore(old, &d.s) {
			cfg.Stores[id] = old
		} else {
			s := d.s
			cfg.Stores[id] = &s
		}
		switch {
		case len(d.serves) == 0:
		case first:
			cfg.Serves[id], d.serves = d.serves, nil
		case slices.Equal(prev.Serves[id], d.serves):
			cfg.Serves[id] = prev.Serves[id]
		default:
			cfg.Serves[id] = slices.Clone(d.serves)
		}
		d.changed, d.lists = false, 0
	}
	for _, d := range c.touched.spouts {
		switch old := prev.Spouts[d.rel]; {
		case first:
			cfg.Spouts[d.rel], d.out = &topology.Spout{Relation: d.rel, Out: d.out}, nil
		case old != nil && slices.Equal(old.Out, d.out):
			cfg.Spouts[d.rel] = old
		default:
			cfg.Spouts[d.rel] = &topology.Spout{Relation: d.rel, Out: slices.Clone(d.out)}
		}
	}
	for _, l := range c.touched.rules {
		d := c.stores[l.store]
		d.lists++
		switch old := prev.Rules[l.store][l.edge]; {
		case first:
			l.out, l.rules, d.changed = l.rules, nil, true
		case sameRules(old, l.rules):
			l.out = old
		default:
			l.out = cloneRules(l.rules)
			d.changed = true
		}
	}
	for _, l := range c.touched.rules {
		d, old := c.stores[l.store], prev.Rules[l.store]
		if !d.changed && len(old) == d.lists {
			cfg.Rules[l.store] = old
			continue
		}
		byEdge := cfg.Rules[l.store]
		if byEdge == nil {
			byEdge = make(map[topology.EdgeID][]topology.Rule, d.lists)
			cfg.Rules[l.store] = byEdge
		}
		byEdge[l.edge] = l.out
	}
	if c.keepDropped {
		for id, byEdge := range cfg.Rules {
			for edge, rules := range prev.Rules[id] {
				if _, ok := byEdge[edge]; !ok && !slices.ContainsFunc(rules, func(r topology.Rule) bool {
					return slices.ContainsFunc(r.Out, func(em topology.Emission) bool { return em.To != "" && cfg.Stores[em.To] == nil })
				}) {
					byEdge[edge] = rules
				}
			}
		}
	}
	return cfg
}

// sweep drops what the current compile did not walk.
func (c *compiler) sweep() {
	for k, n := range c.nodes {
		if n.gen != c.gen {
			delete(c.edges, n.inEdge)
			delete(c.nodes, k)
		}
	}
	for k, r := range c.roots {
		if r.gen != c.gen {
			delete(c.roots, k)
		}
	}
	for k, op := range c.orders {
		if op.gen != c.gen {
			delete(c.orders, k)
		}
	}
	for k, d := range c.stores {
		if d.gen != c.gen {
			delete(c.stores, k)
		}
	}
	for k, d := range c.spouts {
		if d.gen != c.gen {
			delete(c.spouts, k)
		}
	}
	for k, l := range c.rules {
		if l.gen != c.gen {
			delete(c.rules, k)
		}
	}
}

func sameStore(a, b *topology.Store) bool {
	return a.ID == b.ID && a.MIRKey == b.MIRKey && a.Label == b.Label && a.Partition == b.Partition &&
		a.Parallelism == b.Parallelism && slices.Equal(a.Rels, b.Rels) && slices.Equal(a.Preds, b.Preds) &&
		slices.Equal(a.SplitKeys, b.SplitKeys)
}

// sameRules reports whether two rule lists are equal field for field.
func sameRules(a, b []topology.Rule) bool {
	return slices.EqualFunc(a, b, func(x, y topology.Rule) bool {
		return x.Kind == y.Kind && x.Store == y.Store && x.In == y.In &&
			(sameSlice(x.Preds, y.Preds) || slices.Equal(x.Preds, y.Preds)) && slices.Equal(x.Out, y.Out)
	})
}

// cloneRules copies a rule list and its emissions out of the drafts.
func cloneRules(rules []topology.Rule) []topology.Rule {
	n := 0
	for i := range rules {
		n += len(rules[i].Out)
	}
	out, ems := slices.Clone(rules), make([]topology.Emission, 0, n)
	for i := range out {
		if len(rules[i].Out) == 0 {
			out[i].Out = nil
			continue
		}
		k := len(ems)
		ems = append(ems, rules[i].Out...)
		out[i].Out = ems[k:len(ems):len(ems)]
	}
	return out
}

// samePreds reports whether a and b hold the same predicates, each side
// of a predicate in either orientation, as many times each.
func samePreds(a, b []query.Predicate) bool {
	if len(a) != len(b) {
		return false
	}
	var buf [8]bool
	used := buf[:]
	if len(b) > len(buf) {
		used = make([]bool, len(b))
	}
next:
	for _, p := range a {
		p = p.Normalize()
		for j, q := range b {
			if !used[j] && q.Normalize() == p {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

func hasEmission(out []topology.Emission, edge topology.EdgeID, to topology.StoreID) bool {
	for _, e := range out {
		if e.Edge == edge && e.To == to {
			return true
		}
	}
	return false
}

func hasSink(out []topology.Emission, sink string) bool {
	for _, e := range out {
		if e.Sink == sink {
			return true
		}
	}
	return false
}
