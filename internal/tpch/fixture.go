package tpch

import (
	"sort"
	"time"

	"clash/internal/broker"
	"clash/internal/core"
	"clash/internal/ilp"
	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// maxNodes is the branch-and-bound budget of every solve a Fixture
// runs — the budget the benchmark's tpch-mqo workload plans under. A
// count, not a time limit, like the warm start's local search: the
// search explores the same tree on every machine, so the plan, and with it every probe-tuple,
// memory, store and result count downstream, is a function of
// (queries, sf, seed, parallelism) alone.
const maxNodes = 20_000

// span is the event-time length of a Fixture's stream.
const span = time.Second

// Fixture is the paper's Fig. 7 setting in small: the TPC-H tables a
// query set reads, interleaved into one stream, the statistics the
// adaptive controller would have gathered from that stream, and an
// optimizer on a counted budget. Every figure, sweep, test and command
// that runs TPC-H queries through a plan starts here.
type Fixture struct {
	Queries     []*query.Query
	Catalog     *query.Catalog
	Records     []broker.Record  // every involved table, interleaved over one second of event time
	Estimates   *stats.Estimates // rates and selectivities measured from Records
	Parallelism int

	opt *core.Optimizer
}

// NewFixture generates the stream the queries read at the given scale
// factor and seed and measures its estimates.
func NewFixture(queries []*query.Query, sf float64, seed uint64, parallelism int) (*Fixture, error) {
	tables := tablesOf(queries)
	b := broker.New()
	if err := FillBroker(b, sf, seed, tuple.Duration(span), tables); err != nil {
		return nil, err
	}
	f := &Fixture{
		Queries:     queries,
		Catalog:     Catalog(),
		Records:     b.Interleave(tables...),
		Parallelism: parallelism,
		opt: core.NewOptimizer(core.Options{
			StoreParallelism: parallelism,
			Solver:           ilp.Options{MaxNodes: maxNodes},
		}),
	}
	f.Estimates = estimate(f.Catalog, queries, f.Records)
	return f, nil
}

// Joint optimizes all queries into one shared plan (CMQO).
func (f *Fixture) Joint() (*core.Plan, error) {
	return f.opt.Optimize(f.Queries, f.Estimates)
}

// Individual optimizes every query in isolation (the FI/SI/FS/SS
// strategies' plans).
func (f *Fixture) Individual() ([]*core.Plan, error) {
	return f.opt.OptimizeIndividually(f.Queries, f.Estimates)
}

// Compile turns plans into a topology at the fixture's parallelism.
func (f *Fixture) Compile(shared bool, plans ...*core.Plan) (*topology.Config, error) {
	return core.Compile(plans, core.CompileOptions{Shared: shared, Parallelism: f.Parallelism})
}

// SharedTopology compiles the joint plan with shared stores.
func (f *Fixture) SharedTopology() (*topology.Config, error) {
	plan, err := f.Joint()
	if err != nil {
		return nil, err
	}
	return f.Compile(true, plan)
}

// tablesOf lists the tables the queries read, sorted.
func tablesOf(queries []*query.Query) []string {
	set := map[string]bool{}
	for _, q := range queries {
		for _, r := range q.Relations {
			set[r] = true
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// estimate runs the statistics pipeline over a record stream exactly as
// the adaptive controller would: rates from counts, selectivities from
// reservoir-sample joins.
func estimate(cat *query.Catalog, queries []*query.Query, records []broker.Record) *stats.Estimates {
	col := stats.NewCollector(512, 256, 7)
	schemas := map[string]*tuple.Schema{}
	for _, name := range cat.Names() {
		schemas[name] = tuple.NewSchema(cat.Relation(name).QualifiedAttrs()...)
	}
	for _, r := range records {
		col.Observe(r.Relation, tuple.New(schemas[r.Relation], r.TS, r.Vals...))
	}
	var preds []query.Predicate
	seen := map[string]bool{}
	for _, q := range queries {
		for _, p := range q.Preds {
			if !seen[p.String()] {
				seen[p.String()] = true
				preds = append(preds, p)
			}
		}
	}
	return col.Seal(span, preds)
}
