package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

	"clash/internal/mir"
	"clash/internal/query"
)

// Reopt carries optimizer state across churn steps so re-optimization
// does work proportional to the delta, not the workload:
//
//   - Memo caches MIR enumeration and containment verdicts (pure
//     functions of query shape).
//   - The incumbent selection of the previous joint solve under the same
//     eligibility regime seeds the new solve: surviving (query, start)
//     groups keep their choice, only added or affected groups are
//     re-placed, on their cheapest candidate compatible with what the
//     survivors committed.
//   - The structure of each (sub)query's decorated candidates — orders,
//     step keys, χ verdicts — is reused while the query's shape, its MIR
//     eligibility, the structural options and what it reads of the rest
//     of the workload are unchanged: the partition candidates of its
//     relation subsets over the query set and the query set's
//     predicates among its relations (structSig). A solve re-prices it
//     under its own estimates.
//
// The ILP itself is solved afresh every step: the solver keeps nothing
// across solves, so its result is a function of the model, the node
// budget and the warm start. What a Reopt does keep for the solver is
// memory: one workspace that each solve builds its model, prices its
// candidates and searches in, reset instead of reallocated. A solve that
// finds it lent out runs on a fresh one.
//
// A Reopt value is owned by one optimization loop (the adaptive
// Controller or a bench harness); it is safe for concurrent use, and
// Advance must be called once per churn step to age out stale entries.
type Reopt struct {
	Memo *mir.Memo

	mu        sync.Mutex
	gen       uint64
	keep      uint64
	incumbent map[string]string // regime+query+"\x00"+start -> selected order key
	ctr       ReoptStats        // the warm-start and candidate-cache counters; Stats fills in the rest
	syms      *symbols          // the ids the cached structures carry
	symsCap   int               // the table size at which Advance replaces it
	symsFresh bool              // syms was replaced at the last Advance
	structs   map[string]*reoptEntry[structEntry]
	ws        *workspace // lent to one solve at a time (acquire)
	wsBusy    bool

	// blindNeighbourhood leaves what a structure reads of the rest of
	// the workload (workloadSig) out of structure keys; tests set it to
	// show the key needs it.
	blindNeighbourhood bool
}

type reoptEntry[T any] struct {
	val T
	gen uint64
}

// structEntry is one cached candidate structure and the symbol table
// its ids come from.
type structEntry struct {
	group map[string][]*DecoratedOrder
	syms  *symbols
}

// NewReopt returns fresh cross-churn optimizer state.
func NewReopt() *Reopt {
	return &Reopt{
		Memo:      mir.NewMemo(16),
		keep:      16,
		incumbent: map[string]string{},
		syms:      newSymbols(),
		symsCap:   minSymbolCap,
		structs:   map[string]*reoptEntry[structEntry]{},
	}
}

// ReoptStats aggregates the effectiveness counters of all cache layers
// and of the warm start, over the lifetime of the Reopt value.
type ReoptStats struct {
	MemoHits    uint64
	MemoMisses  uint64
	MemoEntries int
	Incumbents  int

	// JointSolves counts the joint solves that built a warm start. Each
	// attempted an incumbent repair with exactly one outcome: feasible,
	// infeasible (the repaired selection could not be completed), or
	// nothing matched (no incumbent of that regime yet, or none of its
	// orders survives among the candidates).
	JointSolves       uint64
	RepairsFeasible   uint64
	RepairsInfeasible uint64
	RepairsUnmatched  uint64
	// GroupsMatched of GroupsSeen (query, start) groups kept their
	// incumbent order, summed over the joint solves.
	GroupsMatched uint64
	GroupsSeen    uint64
	// Seeded* say which warm-start variant was the cheapest and seeded the
	// search, one count per joint solve that found any.
	SeededIncumbent      uint64
	SeededGreedyMarginal uint64
	SeededGreedyAbsolute uint64
	SeededLocalSearch    uint64
	// Probes of the candidate-structure cache, of top-level and of
	// feeding groups. Their keys leave the estimates out: a hit under a
	// new snapshot is re-priced. A top-level group misses when its query
	// is new or changed, or a query that arrived or left gave one of its
	// relation subsets a partition candidate or its relations a predicate
	// among them, or took one away.
	TopHits, TopMisses   uint64
	FeedHits, FeedMisses uint64
}

// Stats returns point-in-time counters.
func (r *Reopt) Stats() ReoptStats {
	ms := r.Memo.Stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ctr
	s.MemoHits, s.MemoMisses, s.MemoEntries = ms.Hits, ms.Misses, ms.Entries
	s.Incumbents = len(r.incumbent)
	return s
}

// Advance starts a new churn generation: the memo ages one step and local candidate caches untouched for the retention window
// are evicted. Call once per re-optimization step (the Controller does).
func (r *Reopt) Advance() {
	r.Memo.Advance()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	// A table that outgrew its cap starts over, and the structures, which
	// carry its ids, with it. One step after a new start the table holds
	// about what is live; the cap is four times that.
	if n := r.syms.len(); r.symsFresh {
		r.symsCap, r.symsFresh = max(minSymbolCap, 4*n), false
	} else if n > r.symsCap {
		r.syms, r.symsFresh = newSymbols(), true
		r.structs = map[string]*reoptEntry[structEntry]{}
	}
	if r.gen < r.keep {
		return
	}
	cutoff := r.gen - r.keep
	evictReopt(r.structs, cutoff)
	// The incumbent map holds one short entry per live (query, start)
	// group; stale entries for retired queries are never looked up and
	// are rewritten wholesale, so only pathological churn can grow it.
	if len(r.incumbent) > 1<<17 {
		r.incumbent = map[string]string{}
	}
}

func evictReopt[T any](m map[string]*reoptEntry[T], cutoff uint64) {
	for k, e := range m {
		if e.gen <= cutoff {
			delete(m, k)
		}
	}
}

// symbolTable hands a solve the symbol table the cached structures'
// ids come from.
func (r *Reopt) symbolTable() *symbols {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.syms
}

// regime names the eligibility regime a joint solve runs under. The
// adaptive controller solves twice per step — unrestricted ("what we
// would like to run"), then restricted to mature MIR stores ("what can
// run now") — and the two optima differ exactly where a wanted store is
// still warming up. Each regime keeps its own incumbent, so a solve is
// repaired from a selection that was feasible under its own rules instead
// of the other regime's.
func (o Options) regime() string {
	if o.MIREligible == nil {
		return "free\x00"
	}
	return "restricted\x00"
}

// incumbentKey names one (query, start) group's entry in a regime's
// incumbent.
func incumbentKey(regime, query, start string) string {
	return regime + query + "\x00" + start
}

func (r *Reopt) incumbentFor(regime, query, start string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.incumbent[incumbentKey(regime, query, start)]
	return k, ok
}

// noteIncumbent merges the top-level selection of a finished joint solve
// into its regime's incumbent (one entry per (query, start) group).
func (r *Reopt) noteIncumbent(regime string, plan *Plan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range plan.Selected {
		if d.ForMIR == "" {
			r.incumbent[incumbentKey(regime, d.Query.Name, d.Start)] = d.Key()
		}
	}
}

// noteWarmStart folds one joint solve's warm-start report into the
// lifetime counters.
func (r *Reopt) noteWarmStart(w warmReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &r.ctr
	c.JointSolves++
	switch {
	case w.repaired:
		c.RepairsFeasible++
	case w.matched > 0:
		c.RepairsInfeasible++
	default:
		c.RepairsUnmatched++
	}
	c.GroupsMatched += uint64(w.matched)
	c.GroupsSeen += uint64(w.groups)
	if w.seed >= 0 {
		*[numSeeds]*uint64{&c.SeededIncumbent, &c.SeededGreedyMarginal, &c.SeededGreedyAbsolute,
			&c.SeededLocalSearch}[w.seed]++
	}
}

// structLookup returns the candidate structure cached under sig with
// ids from syms, counting the probe as a top-level or feeding one.
func (r *Reopt) structLookup(sig []byte, syms *symbols, feed bool) (map[string][]*DecoratedOrder, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.structs[string(sig)]
	ok = ok && e.val.syms == syms
	hits, misses := &r.ctr.TopHits, &r.ctr.TopMisses
	if feed {
		hits, misses = &r.ctr.FeedHits, &r.ctr.FeedMisses
	}
	if !ok {
		*misses++
		return nil, false
	}
	*hits++
	e.gen = r.gen
	return e.val.group, true
}

func (r *Reopt) structStore(sig []byte, syms *symbols, group map[string][]*DecoratedOrder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.structs[string(sig)] = &reoptEntry[structEntry]{val: structEntry{group: group, syms: syms}, gen: r.gen}
}

// structFingerprint captures the options that shape candidate
// structure: which decorated orders exist, their steps, and χ.
func (o Options) structFingerprint() string {
	return fmt.Sprintf("p%d|dp%t|uc%t|mc%t",
		o.parallelism(), o.DisablePartitioning, o.UniformChi, o.MaterializationCost)
}

// structSig writes the key of q's cached candidate structure into the
// workspace's key buffer and returns it. q is a top-level query or
// (fed != nil) the subquery feeding an MIR. The key holds what the
// structure is built from: q's name (part of every decorated-order key),
// its join shape — for a fed subquery the MIR's key, which is the
// subquery's fingerprint — and whether it feeds, its MIR eligibility, the
// structural options, and what it reads of the workload (workloadSig).
// The estimates and the cap are left out: price applies them to a copy on
// every solve. Every part is length-prefixed, so two different inputs
// never write the same key; a lookup converts nothing.
func (b *builder) structSig(q *query.Query, fed *mir.MIR) []byte {
	k := appendStr(b.key[:0], q.Name)
	if fed != nil {
		k = appendStr(append(k, 'f'), fed.Key())
	} else {
		k = appendStr(append(k, 'q'), b.fps[q.Name])
	}
	k = appendStr(k, b.eligSig(q))
	k = appendStr(k, b.structFP)
	k = b.workloadSig(k, q)
	b.key = k
	return k
}

// appendStr appends s to k, length first.
func appendStr(k []byte, s string) []byte {
	return append(binary.AppendUvarint(k, uint64(len(s))), s...)
}

// appendAttr appends a to k, relation then name.
func appendAttr(k []byte, a query.Attr) []byte {
	return appendStr(appendStr(k, a.Rel), a.Name)
}

// workloadSig appends to k all that q's candidate structure reads of the
// query set besides q: per proper subset of q's relations that q's own
// predicates connect (q's MIRs, every element its orders can probe), in
// the order of the subset's mask over the sorted relations, its sorted
// mir.PartitionCandidates over the query set; then the query set's
// distinct predicates with both sides among q's relations, normalized
// and sorted — the only ones cost.Estimator.Knows follows for q's
// steps. A query that shares a relation with q but adds neither a
// partition candidate nor such a predicate leaves the key as it was.
// Without partitioning neither is consulted.
func (b *builder) workloadSig(k []byte, q *query.Query) []byte {
	if b.opts.DisablePartitioning || b.opts.Reopt.blindNeighbourhood {
		return k
	}
	rels := append(b.rels[:0], q.Relations...)
	slices.Sort(rels)
	b.rels = rels
	// The predicates of the queries sharing a relation with q, each
	// query once (under the first relation of q it joins), as bits over
	// rels.
	sides := b.sides[:0]
	for i, rel := range rels {
		for _, o := range b.byRel[rel] {
			joins := 0
			for _, r := range o.Relations {
				joins |= relBit(rels, r)
			}
			if joins&(1<<i-1) != 0 {
				continue
			}
			for _, p := range o.Preds {
				sides = append(sides, keySide{joins: joins, l: relBit(rels, p.Left.Rel), r: relBit(rels, p.Right.Rel), p: p})
			}
		}
	}
	b.sides = sides
	// adj[i] holds the relations q's own predicates join rels[i] to: a
	// subset they leave disconnected is no MIR of q, and no element.
	adj := resize(b.adj, len(rels))
	clear(adj)
	for _, p := range q.Preds {
		l, r := relBit(rels, p.Left.Rel), relBit(rels, p.Right.Rel)
		if l != 0 && r != 0 {
			adj[bits.TrailingZeros(uint(l))] |= r
			adj[bits.TrailingZeros(uint(r))] |= l
		}
	}
	b.adj = adj
	all := 1<<len(rels) - 1
	for mask := 1; mask < all; mask++ {
		if !connected(adj, mask) {
			continue
		}
		attrs := b.attrs[:0]
		for _, sd := range sides {
			if mask&^sd.joins != 0 {
				continue // the query does not join every relation of the subset
			}
			if l, r := sd.l&mask != 0, sd.r&mask != 0; l && !r {
				attrs = append(attrs, sd.p.Left)
			} else if r && !l {
				attrs = append(attrs, sd.p.Right)
			}
		}
		slices.SortFunc(attrs, query.Attr.Compare)
		attrs = slices.Compact(attrs)
		k = binary.AppendUvarint(k, uint64(len(attrs)))
		for _, a := range attrs {
			k = appendAttr(k, a)
		}
		b.attrs = attrs
	}
	preds := b.preds[:0]
	for _, sd := range sides {
		if sd.l != 0 && sd.r != 0 {
			preds = append(preds, sd.p.Normalize())
		}
	}
	slices.SortFunc(preds, func(x, y query.Predicate) int {
		if c := x.Left.Compare(y.Left); c != 0 {
			return c
		}
		return x.Right.Compare(y.Right)
	})
	preds = slices.Compact(preds)
	k = binary.AppendUvarint(k, uint64(len(preds)))
	for _, p := range preds {
		k = appendAttr(appendAttr(k, p.Left), p.Right)
	}
	b.preds = preds
	return k
}

// keySide is one predicate of a query sharing a relation with the query
// whose structure key workloadSig writes, as bits over that query's
// sorted relations: those the sharing query joins, and each side's
// relation (0 outside them).
type keySide struct {
	joins, l, r int
	p           query.Predicate
}

// connected reports whether the relations of mask form one component
// under adj (see workloadSig).
func connected(adj []int, mask int) bool {
	reach := mask & -mask
	for {
		next := reach
		for r := reach; r != 0; r &= r - 1 {
			next |= adj[bits.TrailingZeros(uint(r))] & mask
		}
		if next == reach {
			return reach == mask
		}
		reach = next
	}
}

// relBit is rel's bit over the sorted relations rels, 0 when rels does
// not hold it.
func relBit(rels []string, rel string) int {
	if i, ok := slices.BinarySearch(rels, rel); ok {
		return 1 << i
	}
	return 0
}

// eligSig fingerprints which of a query's own MIR subsets are eligible
// under the current MIREligible policy, by listing the positions of the
// ineligible ones. Per-query candidates depend on exactly this set: MIRs
// from other queries are either key-identical (deduplicated) or fail the
// containment verdict. Without a policy the list is empty, so the free
// and the restricted solve share structure wherever the restriction bans
// none of q's MIRs; with MIRs disabled the signature is "-".
func (b *builder) eligSig(q *query.Query) string {
	if !b.opts.mirsEnabled() {
		return "-"
	}
	if b.opts.MIREligible == nil {
		return ""
	}
	var sb strings.Builder
	for i, m := range b.opts.Reopt.Memo.Enumerate([]*query.Query{q}) {
		if !m.IsBase() && !b.opts.MIREligible(m.Key()) {
			sb.WriteString(strconv.Itoa(i))
			sb.WriteByte(',')
		}
	}
	return sb.String()
}
