package core

import (
	"fmt"
	"slices"
	"sort"
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
//     eligibility, the structural options and its relation neighbourhood
//     are unchanged; a solve re-prices it under its own estimates and
//     coefficients.
//
// The ILP itself is solved afresh every step: the solver keeps nothing
// across solves, so its result is a function of the model, the node
// budget and the warm start.
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

	// blindNeighbourhood leaves the relation neighbourhood out of
	// structure keys; tests set it to show the key needs it.
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
	// is new or changed or an installed query sharing one of its
	// relations arrived or left.
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
func (r *Reopt) structLookup(sig string, syms *symbols, feed bool) (map[string][]*DecoratedOrder, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.structs[sig]
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

func (r *Reopt) structStore(sig string, syms *symbols, group map[string][]*DecoratedOrder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.structs[sig] = &reoptEntry[structEntry]{val: structEntry{group: group, syms: syms}, gen: r.gen}
}

// structFingerprint captures the options that shape candidate
// structure: which decorated orders exist, their steps, and χ.
func (o Options) structFingerprint() string {
	return fmt.Sprintf("p%d|dp%t|uc%t|mc%t",
		o.parallelism(), o.DisablePartitioning, o.UniformChi, o.MaterializationCost)
}

// structSig keys the cached candidate structure of q, a top-level query
// or (fed != nil) the subquery feeding an MIR: q's name (part of every
// decorated-order key), its join shape — for a fed subquery the MIR's
// key, which is the subquery's fingerprint — and whether it feeds, its
// MIR eligibility, the structural options, and its relation
// neighbourhood. The estimates, the coefficients and the cap are left
// out: price applies them to a copy on every solve.
func (b *builder) structSig(q *query.Query, fed *mir.MIR) string {
	shape := b.fps[q.Name]
	if fed != nil {
		shape = "feed:" + fed.Key()
	}
	return q.Name + "|" + shape + "|" + b.eligSig(q) + "|" + b.structFP + "|" + b.neighbourhood(q)
}

// neighbourhood fingerprints the queries under optimization that share
// a relation with q. They are all of the workload that q's candidate
// structure reads: an element's partition candidates come from the
// queries containing all of its relations (mir.PartitionCandidates),
// and Knows follows only predicates among q's relations. Without
// partitioning neither is consulted.
func (b *builder) neighbourhood(q *query.Query) string {
	if b.opts.DisablePartitioning || b.opts.Reopt.blindNeighbourhood {
		return ""
	}
	var fps []string
	for _, rel := range q.Relations {
		fps = append(fps, b.byRel[rel]...)
	}
	sort.Strings(fps)
	return strings.Join(slices.Compact(fps), ",")
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
	var ms []*mir.MIR
	if r := b.opts.Reopt; r != nil && r.Memo != nil {
		ms = r.Memo.Enumerate([]*query.Query{q})
	} else {
		ms = mir.Enumerate([]*query.Query{q})
	}
	var sb strings.Builder
	for i, m := range ms {
		if !m.IsBase() && !b.opts.MIREligible(m.Key()) {
			sb.WriteString(strconv.Itoa(i))
			sb.WriteByte(',')
		}
	}
	return sb.String()
}
