package runtime

// Compiled probe plans: the per-tuple interpretation work of the hot
// path — resolving predicate attribute names against schemas, scanning
// rule lists to classify emissions, and re-deriving routing metadata —
// is hoisted to Install time (DESIGN.md §7). Each installed topology is
// compiled once into a compiledTopo: spout emissions and rules become
// emitStep / rulePlan values holding everything the runtime needs as
// plain fields, and the remaining schema-dependent work (column
// positions of predicate and τ attributes) is resolved lazily at
// first sight of each schema and cached per task, so steady-state
// probes touch no string-keyed maps at all.
//
// An install keeps what did not change: a rule equal to one the previous
// compiled topology ran on the same store and edge keeps its rulePlan,
// and every task keeps that plan's planState (task.setComp), so a churn
// step pays for the rules it changed, not for all of them.
//
// Sharing discipline: compiledTopo, emitStep, and rulePlan are built
// under the engine lock during Install and immutable afterwards — all
// tasks read them freely, across every config that shares them.
// planState (the schema-position caches) is mutable and therefore owned
// by a single task; tasks never share planState values.

import (
	"slices"
	"sort"
	"strings"

	"clash/internal/query"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// emitStep is one compiled emission: the target plus everything the
// emit path previously recomputed per tuple — whether a StoreRule
// consumes the edge and the resolved routing attribute names.
type emitStep struct {
	edge topology.EdgeID
	// to is the target store's record (nil for a sink): its tasks and its
	// pin — parallelism and split-key set (a keyed transfer whose routing
	// hash is in the set routes over two candidates instead of the hash
	// partition, keyedParts: inserts to the less-loaded one, probes to
	// both).
	to   *store
	sink string // query name for terminal emissions

	// isStore: a StoreRule at `to` consumes this edge, so the transfer
	// materializes state (routes by the pinned partition attribute and
	// must land exactly once).
	isStore bool
	// insertRoute is the pinned partitioning attribute's qualified name
	// ("" = unpartitioned store: inserts round-robin).
	insertRoute string
	// probeRoute is the sound probe-routing attribute ("" = the sender
	// cannot key its probes: broadcast). Non-empty only when the
	// compile-time RouteBy matches the pinned physical partitioning.
	probeRoute string
}

// routeName returns the attribute whose hash routes this transfer, or
// "" when the transfer cannot be keyed.
func (s *emitStep) routeName() string {
	if s.isStore {
		return s.insertRoute
	}
	return s.probeRoute
}

// predPlan is one compiled probe predicate: which qualified attribute
// is stored here and which arrives on the probing tuple.
type predPlan struct {
	storedAttr string
	probeAttr  string
}

// indexKey names one local index of a store: the stored attributes it is
// keyed by, sorted by name, so rules carrying the same attribute set
// share one index whatever order their predicates come in. id is the
// canonical form of the list (a one-attribute key's id is the attribute
// itself), read once, at compile time, to number the key; num is what
// indices, cold-stub filters and the probed-key list are looked up by on
// the hot path — an integer compare.
type indexKey struct {
	id    string
	num   int32
	attrs []string
}

// keyNumbers numbers index keys by id: the first key compiled gets 0,
// and a key compiled again — by a later Install, a re-optimization —
// gets its number back, so indices built under one compiled plan are
// found by the next. The engine owns one and writes it under its write
// lock (compileRule).
type keyNumbers map[string]int32

func (kn keyNumbers) number(id string) int32 {
	n, ok := kn[id]
	if !ok {
		n = int32(len(kn))
		kn[id] = n
	}
	return n
}

// rulePlan is one compiled rule. ALL equality predicates key the local
// index (key; Sec. V-B: "for each distinct attribute access in a store,
// indices are created locally"), and visitors re-check every predicate
// by value, so the index is a candidate filter that may over-approximate
// but never has to. probeAttrs and storedAttrs are the predicate
// attribute names in pred order, ready for Schema.Positions when a new
// schema is first seen.
type rulePlan struct {
	kind        topology.RuleKind
	preds       []predPlan
	probeAttrs  []string
	storedAttrs []string
	// key is the index this rule probes — a pure function of the rule's
	// stored attributes, no statistics involved. keyPred[j] is the
	// predicate whose stored side is key.attrs[j]: the probe-side value
	// hashed in the key's j-th place (probeBatch.add).
	key      indexKey
	keyPred  []int
	out      []emitStep
	sinkOnly bool // every emission a sink: results die with their probe batch
	// rule keeps the uncompiled form for the legacy string-resolved
	// probe path (differential testing, see task.probeLegacy).
	rule *topology.Rule
}

// compiledTopo is the compiled form of one installed topology.
type compiledTopo struct {
	spouts map[string][]emitStep
	rules  map[topology.StoreID]map[topology.EdgeID][]*rulePlan
	// keys lists, per store, the numbers of the index keys its probe
	// rules use (task.setComp retires the others).
	keys map[topology.StoreID][]int32
}

// runs reports whether the store runs rp in this config (false on a nil
// config).
func (c *compiledTopo) runs(store topology.StoreID, rp *rulePlan) bool {
	return c != nil && slices.Contains(c.rules[store][rp.rule.In], rp)
}

// compileTopo resolves a validated topology against the store records.
// Every rule that prev (nil: none) compiled the same way keeps prev's
// rulePlan: same store and edge, same kind, same predicates in the same
// order — the same slice, when core's compile by difference handed the
// rule over, else equal — and same compiled emissions. An edge whose
// plans all are prev's keeps prev's list, and a store whose edges all do
// keeps prev's map and index keys, so an install allocates for what
// changed. Caller holds e.mu (write): Install must already have created
// the record of every store the topology names.
func (e *Engine) compileTopo(topo *topology.Config, prev *compiledTopo) *compiledTopo {
	comp := &compiledTopo{
		spouts: make(map[string][]emitStep, len(topo.Spouts)),
		rules:  make(map[topology.StoreID]map[topology.EdgeID][]*rulePlan, len(topo.Rules)),
		keys:   make(map[topology.StoreID][]int32, len(topo.Rules)),
	}
	var prevRules map[topology.StoreID]map[topology.EdgeID][]*rulePlan
	var prevSpouts map[string][]emitStep
	var prevKeys map[topology.StoreID][]int32
	if prev != nil {
		prevRules, prevSpouts, prevKeys = prev.rules, prev.spouts, prev.keys
	}
	for rel, sp := range topo.Spouts {
		out := e.compileEmissions(e.emitScratch[:0], topo, sp.Out)
		if old := prevSpouts[rel]; slices.EqualFunc(old, out, sameStep) {
			comp.spouts[rel] = old
		} else {
			comp.spouts[rel] = slices.Clone(out)
		}
		e.emitScratch = out[:0]
	}
	for sid, byEdge := range topo.Rules {
		olds := prevRules[sid]
		var m map[topology.EdgeID][]*rulePlan // made at the first edge whose plans are not olds'
		keys := e.keyScratch[:0]
		for edge, rules := range byEdge {
			oldPlans := olds[edge]
			plans := e.planScratch[:0]
			for i := range rules {
				out := e.compileEmissions(e.emitScratch[:0], topo, rules[i].Out)
				rp := e.kept(oldPlans, &rules[i], out)
				if rp == nil {
					rp = e.compileRule(topo, &rules[i], slices.Clone(out))
				}
				e.emitScratch = out[:0]
				if rp.kind == topology.ProbeRule && !slices.Contains(keys, rp.key.num) {
					keys = append(keys, rp.key.num)
				}
				plans = append(plans, rp)
			}
			e.planScratch = plans[:0]
			if slices.Equal(plans, oldPlans) {
				continue
			}
			if m == nil {
				m = keptPlans(byEdge, olds)
			}
			m[edge] = slices.Clone(plans)
		}
		e.keyScratch = keys[:0]
		switch {
		case m != nil:
		case len(olds) == len(byEdge):
			m = olds
		default:
			m = keptPlans(byEdge, olds)
		}
		comp.rules[sid] = m
		if old := prevKeys[sid]; len(keys) > 0 && len(old) == len(keys) &&
			!slices.ContainsFunc(keys, func(k int32) bool { return !slices.Contains(old, k) }) {
			comp.keys[sid] = old
		} else if len(keys) > 0 {
			comp.keys[sid] = slices.Clone(keys)
		}
	}
	return comp
}

// keptPlans returns a map of byEdge's edges to the plans olds holds for
// them.
func keptPlans(byEdge map[topology.EdgeID][]topology.Rule, olds map[topology.EdgeID][]*rulePlan) map[topology.EdgeID][]*rulePlan {
	m := make(map[topology.EdgeID][]*rulePlan, len(byEdge))
	for edge := range byEdge {
		if plans, ok := olds[edge]; ok {
			m[edge] = plans
		}
	}
	return m
}

// kept returns the plan among olds (the previous topology's plans for the
// rule's store and edge) that compiles r, whose emissions compile to out,
// or nil.
func (e *Engine) kept(olds []*rulePlan, r *topology.Rule, out []emitStep) *rulePlan {
	for _, rp := range olds {
		if rp.kind != r.Kind {
			continue
		}
		if e.keepByEdge || (sameSlice(rp.rule.Preds, r.Preds) || slices.Equal(rp.rule.Preds, r.Preds)) &&
			slices.EqualFunc(rp.out, out, sameStep) {
			return rp
		}
	}
	return nil
}

// sameSlice reports whether a and b are the same slice: the same length
// over the same array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameStep reports whether two compiled emissions route alike: the same
// target record — the same pin — and the same routing attributes.
func sameStep(a, b emitStep) bool {
	return a.edge == b.edge && a.to == b.to && a.sink == b.sink && a.isStore == b.isStore &&
		a.insertRoute == b.insertRoute && a.probeRoute == b.probeRoute
}

// compileEmissions appends the compiled emissions to steps.
func (e *Engine) compileEmissions(steps []emitStep, topo *topology.Config, out []topology.Emission) []emitStep {
	for _, em := range out {
		step := emitStep{edge: em.Edge, sink: em.Sink}
		if em.To != "" {
			ts, st := topo.Stores[em.To], e.stores[em.To]
			if ts == nil || st == nil {
				continue // Validate rejects this; defensive
			}
			step.to = st
			step.isStore = topo.IsStoreEdge(em.To, em.Edge)
			if st.part != (query.Attr{}) {
				step.insertRoute = st.part.Qualified()
				if em.RouteBy != "" && ts.Partition == st.part {
					step.probeRoute = em.RouteBy
				}
			}
		}
		steps = append(steps, step)
	}
	return steps
}

// compileRule compiles r, whose emissions compiled to out.
func (e *Engine) compileRule(topo *topology.Config, r *topology.Rule, out []emitStep) *rulePlan {
	rp := &rulePlan{kind: r.Kind, rule: r, out: out}
	rp.sinkOnly = !slices.ContainsFunc(rp.out, func(s emitStep) bool { return s.sink == "" })
	if r.Kind != topology.ProbeRule {
		return rp
	}
	store := topo.Stores[r.Store]
	inStore := make(map[string]bool, len(store.Rels))
	for _, rel := range store.Rels {
		inStore[rel] = true
	}
	preds := make([]predPlan, 0, len(r.Preds))
	for _, p := range r.Preds {
		stored, probe := p.Left, p.Right
		if !inStore[p.Left.Rel] {
			stored, probe = p.Right, p.Left
		}
		preds = append(preds, predPlan{
			storedAttr: stored.Qualified(),
			probeAttr:  probe.Qualified(),
		})
	}
	rp.setPreds(preds)
	rp.key.num = e.keyNums.number(rp.key.id)
	return rp
}

// setPreds installs the rule's predicates and derives everything that
// follows from them alone: the attribute-name lists and the index key.
// Two predicates on one stored attribute contribute it to the key once
// (the first keys, the other is re-checked by value like every
// predicate).
func (rp *rulePlan) setPreds(preds []predPlan) {
	rp.preds = preds
	rp.probeAttrs, rp.storedAttrs = nil, nil
	for _, p := range preds {
		rp.probeAttrs = append(rp.probeAttrs, p.probeAttr)
		rp.storedAttrs = append(rp.storedAttrs, p.storedAttr)
	}
	rp.keyPred = nil
	for k := range preds {
		first := true
		for _, j := range rp.keyPred {
			first = first && preds[j].storedAttr != preds[k].storedAttr
		}
		if first {
			rp.keyPred = append(rp.keyPred, k)
		}
	}
	sort.Slice(rp.keyPred, func(a, b int) bool {
		return preds[rp.keyPred[a]].storedAttr < preds[rp.keyPred[b]].storedAttr
	})
	attrs := make([]string, len(rp.keyPred))
	for j, k := range rp.keyPred {
		attrs[j] = preds[k].storedAttr
	}
	rp.key = indexKey{id: strings.Join(attrs, "\x00"), attrs: attrs}
}

// storedShape caches, for one stored-tuple schema, the column positions
// a rulePlan needs: predicate attributes (parallel to rp.preds, -1 if
// absent) and τ columns (parallel to the task's window list, -1 if
// absent).
type storedShape struct {
	predPos []int
	tauPos  []int
}

// planState is a task-owned cache attached to one rulePlan: schema →
// column positions, with a monomorphic inline slot in front of a map
// fallback (probe and stored schemas are almost always stable per
// edge, so steady state is two pointer compares per tuple).
type planState struct {
	lastProbe *tuple.Schema
	lastPPos  []int // nil: a probe attribute is absent from the schema
	probeMore map[*tuple.Schema][]int

	lastStored *tuple.Schema
	lastShape  *storedShape
	storedMore map[*tuple.Schema]*storedShape
}

// probePos resolves the probe-side predicate columns for the schema,
// returning nil when any probe attribute is missing (no tuple of this
// schema can match — the legacy path produced zero results there too).
func (st *planState) probePos(s *tuple.Schema, rp *rulePlan) []int {
	if s == st.lastProbe {
		return st.lastPPos
	}
	if pos, ok := st.probeMore[s]; ok {
		st.lastProbe, st.lastPPos = s, pos
		return pos
	}
	pos := allPositions(s, rp.probeAttrs)
	if st.probeMore == nil {
		st.probeMore = make(map[*tuple.Schema][]int, 2)
	}
	st.probeMore[s] = pos
	st.lastProbe, st.lastPPos = s, pos
	return pos
}

// allPositions resolves every name to its column position in the
// schema, or returns nil when any is absent.
func allPositions(s *tuple.Schema, names []string) []int {
	pos := s.Positions(names)
	for _, p := range pos {
		if p < 0 {
			return nil
		}
	}
	return pos
}

// storedShapeFor resolves the stored-side predicate and τ columns for
// the schema (positions may be -1 individually; MIR feeding orders can
// differ in schema between entries of one container).
func (st *planState) storedShapeFor(s *tuple.Schema, rp *rulePlan, tauNames []string) *storedShape {
	if s == st.lastStored {
		return st.lastShape
	}
	if sh, ok := st.storedMore[s]; ok {
		st.lastStored, st.lastShape = s, sh
		return sh
	}
	sh := &storedShape{
		predPos: s.Positions(rp.storedAttrs),
		tauPos:  s.Positions(tauNames),
	}
	if st.storedMore == nil {
		st.storedMore = make(map[*tuple.Schema]*storedShape, 2)
	}
	st.storedMore[s] = sh
	st.lastStored, st.lastShape = s, sh
	return sh
}

// routeScratch is a task-owned scratch area for batch routing: the
// two-pass partitioner that emitBatchLocked runs on a batch of more
// than one tuple uses it instead of allocating a map per probe.
type routeScratch struct {
	parts  []int32 // per tuple: target partition, or -1 (unroutable)
	alts   []int32 // per tuple: a split-key probe's second partition, or -1
	counts []int32 // per partition: placements (a split-key probe counts twice)
	starts []int32 // per partition: fill cursor into the flat result
}

func (rs *routeScratch) ensure(par, n int) {
	if cap(rs.parts) < n {
		rs.parts = make([]int32, n)
		rs.alts = make([]int32, n)
	}
	rs.parts = rs.parts[:n]
	rs.alts = rs.alts[:n]
	if cap(rs.counts) < par {
		rs.counts = make([]int32, par)
		rs.starts = make([]int32, par)
	}
	rs.counts = rs.counts[:par]
	rs.starts = rs.starts[:par]
	for i := range rs.counts {
		rs.counts[i] = 0
	}
}
