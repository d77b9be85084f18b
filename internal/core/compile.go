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
	c := newCompiler(opts)
	if err := c.compile(plans); err != nil {
		return nil, err
	}
	return c.cfg, nil
}

func newCompiler(opts CompileOptions) *compiler {
	return &compiler{
		cfg:       topology.NewConfig(opts.Epoch),
		roots:     map[[2]string]*treeNode{},
		nodes:     map[nodeKey]*treeNode{},
		edges:     map[topology.EdgeID]bool{},
		fedStarts: map[topology.StoreID]map[string]bool{},
		opts:      opts,
	}
}

func (c *compiler) compile(plans []*Plan) error {
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
	if err := c.cfg.Validate(); err != nil {
		return fmt.Errorf("core: compiled invalid topology: %w", err)
	}
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
func (c *compiler) assignRouting() {
	type key struct {
		store topology.StoreID
		edge  topology.EdgeID
	}
	routeBy := map[key]string{}
	var soundBuf, commonBuf [8]query.Attr
	for sid, byEdge := range c.cfg.Rules {
		s := c.cfg.Stores[sid]
		if s == nil || s.Partition == (query.Attr{}) {
			continue
		}
		for eid, rules := range byEdge {
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
				continue
			}
			routeBy[key{store: sid, edge: eid}] = slices.MinFunc(common, query.Attr.Compare).Qualified()
		}
	}
	apply := func(out []topology.Emission) {
		for i := range out {
			if rb, ok := routeBy[key{store: out[i].To, edge: out[i].Edge}]; ok {
				out[i].RouteBy = rb
			}
		}
	}
	for _, sp := range c.cfg.Spouts {
		apply(sp.Out)
	}
	for _, byEdge := range c.cfg.Rules {
		for eid := range byEdge {
			rules := byEdge[eid]
			for i := range rules {
				apply(rules[i].Out)
			}
		}
	}
}

// linked reports whether an equality chain through the predicates of a
// and b joins attribute x to attribute y: the two share an equivalence
// class of query.AttrClasses over both lists (an attribute no predicate
// names is alone in its class).
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
// from the root.
type treeNode struct {
	store  topology.StoreID
	inEdge topology.EdgeID
	path   uint64
}

// nodeKey names a tree node by its parent and the step key that reaches
// it: one node per path, shared by every order that walks it (Fig. 4).
type nodeKey struct {
	parent *treeNode
	step   string
}

type compiler struct {
	cfg   *topology.Config
	opts  CompileOptions
	roots map[[2]string]*treeNode // (namespace, relation) -> root
	nodes map[nodeKey]*treeNode
	edges map[topology.EdgeID]bool // probe-tree edges named so far
	// fedStarts records, per MIR store, the starting relations whose
	// feeding order is already installed. When several per-query plans
	// materialize the same intermediate result (FS/SS), only the first
	// plan's feeding orders are wired: a second feeding path for the same
	// (store, start) would insert every pair twice, and the paper's
	// sharing baselines execute common subplans exactly once.
	fedStarts map[topology.StoreID]map[string]bool
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
	}
}

// storeID renders the (namespaced) store identity for an MIR key.
func storeID(ns, mirKey string) topology.StoreID {
	return topology.StoreID(ns + mirKey)
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
	probed := map[string]bool{}
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
	mirOf := map[string]Element{}
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
		c.cfg.AddStore(&topology.Store{
			ID:          storeID(ns, key),
			MIRKey:      key,
			Label:       e.MIR.Label(),
			Rels:        e.MIR.Rels,
			Preds:       e.MIR.Preds,
			Partition:   p.Partitions[key],
			Parallelism: par,
			SplitKeys:   p.HotKeys[key],
		})
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
		sp := c.cfg.Spout(rel)
		if !hasEmission(sp.Out, edge, sid) {
			sp.Out = append(sp.Out, topology.Emission{Edge: edge, To: sid})
			c.cfg.AddRule(topology.Rule{Kind: topology.StoreRule, Store: sid, In: edge})
		}
	}

	// Probe trees: walk each selected order, sharing nodes by the path
	// of step keys (Fig. 4). Feeding orders are deduplicated per
	// (fed store, starting relation) across plans.
	for _, d := range p.Selected {
		if d.ForMIR != "" {
			sid := storeID(ns, d.ForMIR)
			starts := c.fedStarts[sid]
			if starts == nil {
				starts = map[string]bool{}
				c.fedStarts[sid] = starts
			}
			if starts[d.Start] {
				continue
			}
			starts[d.Start] = true
		}
		if err := c.addOrder(p, d, ns); err != nil {
			return err
		}
	}

	// Reference counting input (Sec. VI-B).
	for _, d := range p.Selected {
		for _, qn := range servedQueries(p, d) {
			for i, e := range d.Elems {
				if i > 0 {
					c.cfg.MarkServes(storeID(ns, e.MIR.Key()), qn)
				}
			}
			if d.ForMIR != "" {
				c.cfg.MarkServes(storeID(ns, d.ForMIR), qn)
			}
		}
	}
	return nil
}

// servedQueries resolves which top-level queries an order serves: itself
// for top-level orders, every query probing the fed MIR for feeds.
func servedQueries(p *Plan, d *DecoratedOrder) []string {
	if d.ForMIR == "" {
		return []string{d.Query.Name}
	}
	seen := map[string]bool{}
	var out []string
	for _, other := range p.Selected {
		if other.ForMIR != "" {
			continue
		}
		for i, e := range other.Elems {
			if i > 0 && e.MIR.Key() == d.ForMIR && !seen[other.Query.Name] {
				seen[other.Query.Name] = true
				out = append(out, other.Query.Name)
			}
		}
	}
	if len(out) == 0 {
		out = []string{d.Query.Name}
	}
	return out
}

// addOrder threads one decorated order through the (shared) probe trees.
func (c *compiler) addOrder(p *Plan, d *DecoratedOrder, ns string) error {
	start := d.Elems[0]
	rel := start.MIR.Rels[0]
	if !start.MIR.IsBase() {
		return fmt.Errorf("core: order %s starts at non-base element %s", d, start.MIR)
	}

	parent := c.root(ns, rel)
	prefixRels := map[string]bool{}
	for _, r := range start.MIR.Rels {
		prefixRels[r] = true
	}

	for i := 1; i < len(d.Elems); i++ {
		e := d.Elems[i]
		k := nodeKey{parent: parent, step: d.Steps[i-1].Key}
		node, exists := c.nodes[k]
		if !exists {
			path := fnvAdd(fnvAdd(parent.path, "|"), k.step)
			node = &treeNode{store: storeID(ns, e.MIR.Key()), inEdge: c.pathEdge(path), path: path}
			c.nodes[k] = node
			// Wire the transfer from the parent.
			em := topology.Emission{Edge: node.inEdge, To: node.store}
			if i == 1 {
				sp := c.cfg.Spout(rel)
				sp.Out = append(sp.Out, em)
			} else {
				c.attachEmission(p, d, parent, i-1, em)
			}
		}
		// Register (or reuse) the probe rule for this order's predicates.
		preds := d.Query.PredsBetween(prefixRels, e.MIR.RelSet())
		c.ensureProbeRule(node, preds)

		for _, r := range e.MIR.Rels {
			prefixRels[r] = true
		}
		parent = node
	}

	// Terminal emission: sink for top-level orders, MIR store insert for
	// feeding orders.
	last := parent
	if last.store == "" {
		return fmt.Errorf("core: order %s has no probe steps", d)
	}
	if d.ForMIR == "" {
		c.attachEmission(p, d, last, len(d.Elems)-1, topology.Emission{Sink: d.Query.Name})
	} else {
		sid := storeID(ns, d.ForMIR)
		edge := topology.EdgeID("ins:" + ns + d.ForMIR)
		c.attachEmission(p, d, last, len(d.Elems)-1, topology.Emission{Edge: edge, To: sid})
		if !c.hasStoreRule(sid, edge) {
			c.cfg.AddRule(topology.Rule{Kind: topology.StoreRule, Store: sid, In: edge})
		}
	}
	return nil
}

// ensureProbeRule makes sure the node's store has a probe rule for the
// incoming edge with exactly these predicates; multiple queries sharing a
// transfer keep separate rules when their predicates differ.
func (c *compiler) ensureProbeRule(node *treeNode, preds []query.Predicate) {
	rules := c.cfg.Rules[node.store][node.inEdge]
	for _, r := range rules {
		if r.Kind == topology.ProbeRule && samePreds(r.Preds, preds) {
			return
		}
	}
	c.cfg.AddRule(topology.Rule{
		Kind: topology.ProbeRule, Store: node.store, In: node.inEdge, Preds: preds,
	})
}

// attachEmission appends an emission to the probe rule at the node that
// carries this order's predicates at step index elemIdx.
func (c *compiler) attachEmission(p *Plan, d *DecoratedOrder, node *treeNode, elemIdx int, em topology.Emission) {
	prefixRels := map[string]bool{}
	for _, e := range d.Elems[:elemIdx] {
		for _, r := range e.MIR.Rels {
			prefixRels[r] = true
		}
	}
	preds := d.Query.PredsBetween(prefixRels, d.Elems[elemIdx].MIR.RelSet())
	c.ensureProbeRule(node, preds)
	rules := c.cfg.Rules[node.store][node.inEdge]
	for ri := range rules {
		r := &rules[ri]
		if r.Kind == topology.ProbeRule && samePreds(r.Preds, preds) {
			if em.Sink != "" {
				if !hasSink(r.Out, em.Sink) {
					r.Out = append(r.Out, em)
				}
			} else if !hasEmission(r.Out, em.Edge, em.To) {
				r.Out = append(r.Out, em)
			}
			return
		}
	}
}

func (c *compiler) hasStoreRule(sid topology.StoreID, edge topology.EdgeID) bool {
	for _, r := range c.cfg.Rules[sid][edge] {
		if r.Kind == topology.StoreRule {
			return true
		}
	}
	return false
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
