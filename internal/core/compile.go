package core

import (
	"fmt"
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
	c := &compiler{
		cfg:       topology.NewConfig(opts.Epoch),
		nodes:     map[string]*treeNode{},
		fedStarts: map[topology.StoreID]map[string]bool{},
		opts:      opts,
	}
	for _, p := range plans {
		ns := ""
		if !opts.Shared {
			ns = plansNamespace(p)
		}
		if err := c.addPlan(p, ns); err != nil {
			return nil, err
		}
	}
	c.assignRouting()
	if err := c.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled invalid topology: %w", err)
	}
	return c.cfg, nil
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
	for sid, byEdge := range c.cfg.Rules {
		s := c.cfg.Stores[sid]
		if s == nil || s.Partition == (query.Attr{}) {
			continue
		}
		inStore := map[string]bool{}
		for _, r := range s.Rels {
			inStore[r] = true
		}
		for eid, rules := range byEdge {
			var common map[string]bool
			probeRules := 0
			for i := range rules {
				if rules[i].Kind != topology.ProbeRule {
					continue
				}
				probeRules++
				restricted := make([]query.Predicate, 0, len(rules[i].Preds)+len(s.Preds))
				restricted = append(restricted, rules[i].Preds...)
				restricted = append(restricted, s.Preds...)
				classes := query.AttrClasses(restricted)
				sound := map[string]bool{}
				for _, p := range rules[i].Preds {
					probeSide := p.Left
					if inStore[p.Left.Rel] {
						probeSide = p.Right
					}
					if query.SameClass(classes, probeSide, s.Partition) {
						sound[probeSide.Qualified()] = true
					}
				}
				if common == nil {
					common = sound
				} else {
					for a := range common {
						if !sound[a] {
							delete(common, a)
						}
					}
				}
			}
			if probeRules == 0 || len(common) == 0 {
				continue
			}
			attrs := make([]string, 0, len(common))
			for a := range common {
				attrs = append(attrs, a)
			}
			sort.Strings(attrs)
			routeBy[key{store: sid, edge: eid}] = attrs[0]
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

func plansNamespace(p *Plan) string {
	names := make([]string, 0, len(p.Queries))
	for _, q := range p.Queries {
		names = append(names, q.Name)
	}
	sort.Strings(names)
	return strings.Join(names, "+") + "::"
}

// treeNode is one inner node of a probe tree: a store reached over a
// specific edge with a specific tuple prefix.
type treeNode struct {
	store  topology.StoreID
	inEdge topology.EdgeID
}

type compiler struct {
	cfg     *topology.Config
	opts    CompileOptions
	nodes   map[string]*treeNode // path of step keys -> node
	edgeSeq int
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

func (c *compiler) newEdge() topology.EdgeID {
	c.edgeSeq++
	return topology.EdgeID(fmt.Sprintf("e%d", c.edgeSeq))
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
		edge := topology.EdgeID(fmt.Sprintf("store:%s%s", ns, rel))
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

	path := ns + "root:" + rel
	prefixRels := map[string]bool{}
	for _, r := range start.MIR.Rels {
		prefixRels[r] = true
	}

	for i := 1; i < len(d.Elems); i++ {
		e := d.Elems[i]
		stepKey := d.Steps[i-1].Key
		childPath := path + "|" + stepKey
		node, exists := c.nodes[childPath]
		if !exists {
			node = &treeNode{store: storeID(ns, e.MIR.Key()), inEdge: c.newEdge()}
			c.nodes[childPath] = node
			// Wire the transfer from the parent.
			em := topology.Emission{Edge: node.inEdge, To: node.store}
			if i == 1 {
				sp := c.cfg.Spout(rel)
				sp.Out = append(sp.Out, em)
			} else {
				parent := c.nodes[path]
				c.attachEmission(p, d, parent, i-1, em)
			}
		}
		// Register (or reuse) the probe rule for this order's predicates.
		preds := d.Query.PredsBetween(prefixRels, e.MIR.RelSet())
		c.ensureProbeRule(node, preds)

		for _, r := range e.MIR.Rels {
			prefixRels[r] = true
		}
		path = childPath
	}

	// Terminal emission: sink for top-level orders, MIR store insert for
	// feeding orders.
	last := c.nodes[path]
	if last == nil {
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

func samePreds(a, b []query.Predicate) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = a[i].String()
		bs[i] = b[i].String()
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
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
