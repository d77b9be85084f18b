package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"clash/internal/ilp"
	"clash/internal/mir"
	"clash/internal/query"
	"clash/internal/stats"
)

// hashSig shortens a long signature string to a 64-bit hex digest for
// use inside cache keys.
func hashSig(s string) string {
	if s == "" {
		return ""
	}
	h := fnv.New64a()
	io.WriteString(h, s)
	return strconv.FormatUint(h.Sum64(), 16)
}

// Reopt carries optimizer state across churn steps so re-optimization
// does work proportional to the delta, not the workload:
//
//   - Memo caches MIR enumeration and containment verdicts (pure
//     functions of query shape).
//   - Cache answers unchanged ILP components from their previous optimal
//     solution without any search.
//   - The incumbent selection of the previous joint solve under the same
//     eligibility regime seeds the new solve: surviving (query, start)
//     groups keep their choice, only added or affected groups are
//     re-placed, on their cheapest candidate compatible with what the
//     survivors committed.
//   - Per-query candidate groups and individual-plan selections are
//     reused verbatim while the estimates snapshot is unchanged.
//
// A Reopt value is owned by one optimization loop (the adaptive
// Controller or a bench harness); it is safe for concurrent use, and
// Advance must be called once per churn step to age out stale entries.
type Reopt struct {
	Memo  *mir.Memo
	Cache *ilp.SolutionCache

	mu        sync.Mutex
	gen       uint64
	keep      uint64
	lastEst   *stats.Estimates
	estVer    uint64
	incumbent map[string]string // regime+query+"\x00"+start -> selected order key
	ctr       ReoptStats        // the warm-start and candidate-cache counters; Stats fills in the rest
	topCands  map[string]*reoptEntry[map[string][]*DecoratedOrder]
	feedCands map[string]*reoptEntry[map[string][]*DecoratedOrder]
	indiv     map[string]*reoptEntry[indivPlan]
}

type reoptEntry[T any] struct {
	val T
	gen uint64
}

type indivPlan struct {
	sig  string
	keys []string // selected decorated-order keys of the single-query optimum
}

// NewReopt returns fresh cross-churn optimizer state.
func NewReopt() *Reopt {
	return &Reopt{
		Memo:      mir.NewMemo(16),
		Cache:     ilp.NewSolutionCache(16),
		keep:      16,
		incumbent: map[string]string{},
		topCands:  map[string]*reoptEntry[map[string][]*DecoratedOrder]{},
		feedCands: map[string]*reoptEntry[map[string][]*DecoratedOrder]{},
		indiv:     map[string]*reoptEntry[indivPlan]{},
	}
}

// ReoptStats aggregates the effectiveness counters of all cache layers
// and of the warm start, over the lifetime of the Reopt value.
type ReoptStats struct {
	MemoHits     uint64
	MemoMisses   uint64
	MemoEntries  int
	CacheHits    uint64
	CacheMisses  uint64
	CacheEntries int
	Incumbents   int

	// JointSolves counts the joint (non-child) solves that built a warm
	// start. Each attempted an incumbent repair with exactly one outcome:
	// feasible, infeasible (the repaired selection could not be completed),
	// or nothing matched (no incumbent of that regime yet, or none of its
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
	SeededIndividual     uint64
	SeededLocalSearch    uint64
	// ChildOptimizations counts the per-query solves run to build the
	// individual-plan union.
	ChildOptimizations uint64
	// Candidate-group cache probes: top-level groups, feeding groups and
	// cached individual-plan selections. Their keys embed the estimates
	// version, so they hit only while the snapshot object is the same.
	TopHits, TopMisses     uint64
	FeedHits, FeedMisses   uint64
	IndivHits, IndivMisses uint64
}

// Stats returns point-in-time counters.
func (r *Reopt) Stats() ReoptStats {
	ms := r.Memo.Stats()
	cs := r.Cache.Stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ctr
	s.MemoHits, s.MemoMisses, s.MemoEntries = ms.Hits, ms.Misses, ms.Entries
	s.CacheHits, s.CacheMisses, s.CacheEntries = cs.Hits, cs.Misses, cs.Entries
	s.Incumbents = len(r.incumbent)
	return s
}

// Advance starts a new churn generation: the memo and solution cache age
// one step and local candidate caches untouched for the retention window
// are evicted. Call once per re-optimization step (the Controller does).
func (r *Reopt) Advance() {
	r.Memo.Advance()
	r.Cache.Advance()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	if r.gen < r.keep {
		return
	}
	cutoff := r.gen - r.keep
	evictReopt(r.topCands, cutoff)
	evictReopt(r.feedCands, cutoff)
	evictReopt(r.indiv, cutoff)
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

// beginSolve refreshes the estimates version: a new snapshot invalidates
// every cost-bearing cache entry (their keys embed the version).
func (r *Reopt) beginSolve(est *stats.Estimates) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastEst != est {
		r.lastEst = est
		r.estVer++
	}
}

func (r *Reopt) estVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.estVer
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
			&c.SeededIndividual, &c.SeededLocalSearch}[w.seed]++
	}
	c.ChildOptimizations += uint64(w.childSolves)
}

func (r *Reopt) topLookup(sig string) (map[string][]*DecoratedOrder, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.topCands[sig]
	if !ok {
		r.ctr.TopMisses++
		return nil, false
	}
	r.ctr.TopHits++
	e.gen = r.gen
	return e.val, true
}

func (r *Reopt) topStore(sig string, group map[string][]*DecoratedOrder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.topCands[sig] = &reoptEntry[map[string][]*DecoratedOrder]{val: group, gen: r.gen}
}

func (r *Reopt) feedLookup(sig string) (map[string][]*DecoratedOrder, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.feedCands[sig]
	if !ok {
		r.ctr.FeedMisses++
		return nil, false
	}
	r.ctr.FeedHits++
	e.gen = r.gen
	return e.val, true
}

func (r *Reopt) feedStore(sig string, group map[string][]*DecoratedOrder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.feedCands[sig] = &reoptEntry[map[string][]*DecoratedOrder]{val: group, gen: r.gen}
}

func (r *Reopt) indivLookup(name, sig string) ([]string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.indiv[name]
	if !ok || e.val.sig != sig {
		r.ctr.IndivMisses++
		return nil, false
	}
	r.ctr.IndivHits++
	e.gen = r.gen
	return e.val.keys, true
}

func (r *Reopt) indivStore(name, sig string, keys []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.indiv[name] = &reoptEntry[indivPlan]{val: indivPlan{sig: sig, keys: keys}, gen: r.gen}
}

// rebindGroup clones cached decorated orders onto the current query
// object. Element and step slices are immutable and shared; only the
// query binding differs (a replaced query may be a fresh object with
// identical content — and the same name, which groupSig embeds, so the
// clone's cached key stays right).
func rebindGroup(cached map[string][]*DecoratedOrder, q *query.Query) map[string][]*DecoratedOrder {
	out := make(map[string][]*DecoratedOrder, len(cached))
	for start, orders := range cached {
		clones := make([]*DecoratedOrder, len(orders))
		for i, d := range orders {
			cp := *d
			cp.Query = q
			clones[i] = &cp
		}
		out[start] = clones
	}
	return out
}

// optsFingerprint captures every option that flows into candidate
// generation and step costing, so cache keys miss when configuration
// changes.
func (o Options) optsFingerprint() string {
	coef := "-"
	if o.CostCoefficients != nil {
		c := *o.CostCoefficients
		coef = fmt.Sprintf("%g:%g:%g", c.Probe, c.Insert, c.Prune)
	}
	return fmt.Sprintf("p%d|dp%t|uc%t|mc%t|cap%d|npc%t|c%s",
		o.parallelism(), o.DisablePartitioning, o.UniformChi,
		o.MaterializationCost, o.MaxCandidatesPerGroup,
		o.NoPartitionConsistency, coef)
}

// eligSig fingerprints which of a query's own MIR subsets are eligible
// under the current MIREligible policy. Per-query candidates depend on
// exactly this set: MIRs from other queries are either key-identical
// (deduplicated) or fail the containment verdict.
func (b *builder) eligSig(q *query.Query) string {
	var ms []*mir.MIR
	if r := b.opts.Reopt; r != nil && r.Memo != nil {
		ms = r.Memo.Enumerate([]*query.Query{q})
	} else {
		ms = mir.Enumerate([]*query.Query{q})
	}
	var sb strings.Builder
	for _, m := range ms {
		if m.IsBase() {
			continue
		}
		ok := b.opts.mirsEnabled() && (b.opts.MIREligible == nil || b.opts.MIREligible(m.Key()))
		if ok {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// workloadSig fingerprints the full query set's join shapes. Partition
// decorations (and χ's equality-chain knowledge) depend on every
// installed query, so partition-aware cache keys embed it; the
// decomposing NoPartitionConsistency/DisablePartitioning regimes do not
// and stay delta-stable.
func (b *builder) workloadSig() string {
	if b.opts.DisablePartitioning {
		return ""
	}
	fps := make([]string, len(b.queries))
	for i, q := range b.queries {
		fps[i] = mir.Fingerprint(q)
	}
	sort.Strings(fps)
	return strings.Join(fps, ",")
}
