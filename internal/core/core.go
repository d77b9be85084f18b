// Package core implements the paper's primary contribution: joint
// optimization of multiple multi-way stream joins. It enumerates
// partition-decorated probe-order candidates over materializable
// intermediate results, constructs the ILP of Sec. V (Algorithm 2) with
// step variables shared across queries, solves it with the internal/ilp
// solver, and extracts a Plan that compiles into a deployable topology.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"clash/internal/cost"
	"clash/internal/ilp"
	"clash/internal/mir"
	"clash/internal/query"
	"clash/internal/stats"
)

// Options configure the optimizer.
type Options struct {
	// StoreParallelism is the number of worker tasks per store
	// (default 4). It determines the broadcast penalty χ.
	StoreParallelism int
	// DisableMIRs drops materialized intermediate-result stores: it
	// reduces candidates to pure iterative probing — an ablation of the
	// paper's Sec. IV materialization. The zero Options value keeps
	// MIRs enabled.
	DisableMIRs bool
	// DisablePartitioning drops partition decorations: every store is
	// unpartitioned and probes always broadcast with χ = parallelism.
	// The paper's Sec. V-2 multi-query example uses this mode.
	DisablePartitioning bool
	// UniformChi forces χ ≡ 1 (partitioning-oblivious costing); an
	// ablation knob for the broadcast penalty.
	UniformChi bool
	// MaterializationCost adds the cost of inserting feeding results
	// into MIR stores (the paper's Eq. 1 omits it; off by default).
	MaterializationCost bool
	// MaxCandidatesPerGroup caps decorated candidates per (query, start)
	// group, keeping the cheapest (0 = unlimited).
	MaxCandidatesPerGroup int
	// MIREligible, when set, restricts which composite MIR stores probe
	// orders may use (by MIR key). The adaptive controller bans stores
	// still warming up (their content does not yet cover a full window,
	// cf. Fig. 6); base relations are always eligible.
	MIREligible func(mirKey string) bool
	// NoPartitionConsistency drops the z-variable rows that force one
	// partitioning per store. This matches the paper's Sec. V
	// formulation verbatim (which prices partition-decorated candidates
	// but adds no cross-query consistency constraint) and decouples
	// queries that merely share a store, making large ILPs decompose.
	// Plans optimized this way report costs (Fig. 9) but are not
	// guaranteed deployable; leave it off for execution.
	NoPartitionConsistency bool
	// Solver passes through branch-and-bound options.
	Solver ilp.Options
	// Reopt, when set, carries optimizer state across churn steps:
	// the previous incumbent seeds branch-and-bound, MIR containment
	// verdicts and the structure of candidate groups are memoized (each
	// solve re-prices it), and unchanged ILP components are answered
	// from their cached optimal solutions.
	// nil re-optimizes from scratch (the previous behavior).
	Reopt *Reopt
	// CostCoefficients scales the analytic cost model by runtime-
	// measured per-tuple work (probe/insert/prune units normalized to
	// probe = 1). nil keeps the analytic constants.
	CostCoefficients *cost.Coefficients
	// DeterministicWarmStart is ignored; the local-search warm start's
	// budget is always an evaluation count.
	DeterministicWarmStart bool
}

func (o Options) parallelism() int {
	if o.StoreParallelism <= 0 {
		return 4
	}
	return o.StoreParallelism
}

// Parallelism returns the effective store parallelism (default 4).
func (o Options) Parallelism() int { return o.parallelism() }

func (o Options) mirsEnabled() bool { return !o.DisableMIRs }

// Optimizer runs the multi-query optimization.
type Optimizer struct {
	opts Options
}

// NewOptimizer returns an optimizer with the given options.
func NewOptimizer(opts Options) *Optimizer { return &Optimizer{opts: opts} }

// Options returns the optimizer's configuration.
func (o *Optimizer) Options() Options { return o.opts }

// Element is one decorated element of a probe order: the targeted MIR
// store and the partitioning attribute assumed for it. The starting
// element carries the zero attribute.
type Element struct {
	MIR       *mir.MIR
	Partition query.Attr
}

// Label renders "S[b]" style element names.
func (e Element) Label() string {
	if e.Partition == (query.Attr{}) {
		return e.MIR.Label()
	}
	return e.MIR.Label() + "[" + e.Partition.Name + "]"
}

// Step is one physical tuple transfer: the partial join result over the
// prefix is sent to the target store. Equal keys across queries denote
// the same transfer and share one ILP variable (Sec. V).
type Step struct {
	Key       string
	PrefixKey string
	Target    Element
	Cost      float64

	id int32 // Key's symbol
}

// DecoratedOrder is a partition-decorated probe-order candidate for one
// (query, starting relation) group, or for feeding an MIR store.
type DecoratedOrder struct {
	Query  *query.Query // the (sub)query answered
	ForMIR string       // "" for top-level orders; fed MIR key otherwise
	Fed    *mir.MIR     // the fed MIR for feeding orders, nil otherwise
	Start  string
	Elems  []Element
	Steps  []Step
	Cost   float64 // PCost(σ) = Σ step costs

	// key caches Key(): the builder looks every candidate up by it several
	// times per solve. Set where the order is built, never afterwards, so
	// orders shared through the cross-churn caches are read-only.
	key string
	// shapes holds, per step, what pricing it reads besides the estimates;
	// shared read-only by every priced copy of a cached order.
	shapes []stepShape
	// id is key's symbol and elems the symbols of the elements' stores and
	// decorations; set with key, shared like shapes.
	id    int32
	elems []elemIDs
	// num numbers a priced copy among its solve's orders and ys holds the
	// ILP variable of each step; set by buildModel.
	num int32
	ys  []int32
}

// elemIDs are an element's store (MIR key) symbol, -1 for the start, and
// its decoration (store and partitioning attribute) symbol, -1 when the
// element is the start or carries no partitioning.
type elemIDs struct {
	store, dec int32
}

// String renders "⟨R,S[b],T[c]⟩".
func (d *DecoratedOrder) String() string {
	parts := make([]string, len(d.Elems))
	for i, e := range d.Elems {
		parts[i] = e.Label()
	}
	return "⟨" + strings.Join(parts, ",") + "⟩"
}

// Key canonically identifies the decorated order within its group.
func (d *DecoratedOrder) Key() string {
	if d.key != "" {
		return d.key
	}
	return d.buildKey()
}

func (d *DecoratedOrder) buildKey() string {
	parts := make([]string, len(d.Elems))
	for i, e := range d.Elems {
		parts[i] = e.MIR.Key() + "[" + e.Partition.String() + "]"
	}
	return d.Query.Name + "/" + d.ForMIR + "/" + strings.Join(parts, "->")
}

// ProblemStats reports the ILP problem size and solve effort, feeding the
// paper's Fig. 9b/9d/9e/9f series.
type ProblemStats struct {
	Queries     int
	MIRs        int
	ProbeOrders int // decorated candidates (top-level + feeding)
	Variables   int
	Constraints int
	// BuildTime covers MIR enumeration, candidate generation and model
	// construction; WarmStartTime the incumbent that seeds the search
	// (repair, greedy passes and, on cold starts, the local search);
	// SolveTime the branch-and-bound search alone. CandidateTime is the
	// part of BuildTime spent on decorated candidates: generating or
	// fetching their structure and pricing it.
	BuildTime     time.Duration
	CandidateTime time.Duration
	WarmStartTime time.Duration
	SolveTime     time.Duration
	Nodes         int
	Status        ilp.Status
	// CacheHits and CacheMisses are always 0: the ILP solver keeps no
	// cache across solves. They remain only because the benchmark module
	// reads them, and go when it stops.
	CacheHits   int
	CacheMisses int
}

// Plan is the optimization result: the selected probe orders (including
// the orders feeding MIR stores), the store partitioning, and the
// objective value (total shared probe cost per time unit).
type Plan struct {
	Queries    []*query.Query
	Selected   []*DecoratedOrder
	Partitions map[string]query.Attr // MIR key -> partitioning attribute
	// HotKeys lists, per partitioned store, the value hashes of heavy
	// hitters whose stream share is large enough to overload a single
	// hash partition (share >= 1/parallelism). The compiler turns them
	// into split keys: routed over two tasks instead of one.
	HotKeys   map[string][]uint64 // MIR key -> sorted heavy-hitter hashes
	Objective float64
	Stats     ProblemStats
	opts      Options
}

// SelectedFor returns the selected top-level order for (queryName, start),
// or nil.
func (p *Plan) SelectedFor(queryName, start string) *DecoratedOrder {
	for _, d := range p.Selected {
		if d.ForMIR == "" && d.Query.Name == queryName && d.Start == start {
			return d
		}
	}
	return nil
}

// FeedsFor returns the selected feeding orders for an MIR key.
func (p *Plan) FeedsFor(mirKey string) []*DecoratedOrder {
	var out []*DecoratedOrder
	for _, d := range p.Selected {
		if d.ForMIR == mirKey {
			out = append(out, d)
		}
	}
	return out
}

// UsedStores returns the MIR keys of every store the plan probes or
// feeds, sorted.
func (p *Plan) UsedStores() []string {
	seen := map[string]bool{}
	for _, d := range p.Selected {
		for i, e := range d.Elems {
			if i == 0 && d.ForMIR == "" && !probedAnywhere(p, e.MIR.Key()) {
				continue
			}
			seen[e.MIR.Key()] = true
		}
		if d.ForMIR != "" {
			seen[d.ForMIR] = true
		}
	}
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func probedAnywhere(p *Plan, mirKey string) bool {
	for _, d := range p.Selected {
		for i, e := range d.Elems {
			if i > 0 && e.MIR.Key() == mirKey {
				return true
			}
		}
	}
	return false
}

// String renders the plan for logs.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan(cost=%.4g)\n", p.Objective)
	for _, d := range p.Selected {
		tag := d.Query.Name
		if d.ForMIR != "" {
			tag = "feed:" + d.ForMIR
		}
		fmt.Fprintf(&b, "  %s %s %s\n", tag, d.Start, d)
	}
	var keys []string
	for k := range p.Partitions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  partition %s by %s\n", k, p.Partitions[k])
	}
	return b.String()
}

// Optimize jointly optimizes the query set against the given data
// characteristics (CMQO mode).
func (o *Optimizer) Optimize(queries []*query.Query, est *stats.Estimates) (*Plan, error) {
	if len(queries) == 0 {
		return &Plan{Partitions: map[string]query.Attr{}, opts: o.opts}, nil
	}
	names := map[string]bool{}
	for _, q := range queries {
		if q.Name == "" {
			return nil, fmt.Errorf("core: query without a name")
		}
		if names[q.Name] {
			return nil, fmt.Errorf("core: duplicate query name %q", q.Name)
		}
		names[q.Name] = true
	}
	b := newBuilder(o.opts, queries, est)
	return b.run()
}

// OptimizeIndividually optimizes each query in isolation (the paper's
// "Individual" baseline and the FS/SS strategies' per-query step).
func (o *Optimizer) OptimizeIndividually(queries []*query.Query, est *stats.Estimates) ([]*Plan, error) {
	plans := make([]*Plan, 0, len(queries))
	for _, q := range queries {
		p, err := o.Optimize([]*query.Query{q}, est)
		if err != nil {
			return nil, fmt.Errorf("core: optimizing %s: %w", q.Name, err)
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// IndividualCost sums the objectives of per-query optimal plans — the
// "Individual" line of Fig. 9a/9c, where probe-order prefixes are not
// shared between queries.
func (o *Optimizer) IndividualCost(queries []*query.Query, est *stats.Estimates) (float64, error) {
	plans, err := o.OptimizeIndividually(queries, est)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, p := range plans {
		total += p.Objective
	}
	return total, nil
}

// estimator builds the cost estimator covering all queries' predicates.
func (o Options) estimator(queries []*query.Query, est *stats.Estimates) *cost.Estimator {
	var preds []query.Predicate
	for _, q := range queries {
		preds = append(preds, q.Preds...)
	}
	e := cost.New(est, preds)
	if o.CostCoefficients != nil {
		e.SetCoefficients(*o.CostCoefficients)
	}
	return e
}
