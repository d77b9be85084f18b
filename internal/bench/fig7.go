// Package bench regenerates every table and figure of the paper's
// evaluation section: the TPC-H multi-query comparison (Fig. 7), the
// adaptive execution time series (Fig. 8), and the ILP scaling study
// (Fig. 9). Each experiment returns printable series; cmd/clash-bench
// and the repository-level benchmarks drive them.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"clash/internal/broker"
	"clash/internal/core"
	"clash/internal/ilp"
	"clash/internal/query"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/tpch"
	"clash/internal/tuple"
)

// Strategy names the five processing strategies of Fig. 7 (Sec. VII-A).
type Strategy string

// The compared strategies: independent deployment and naive sharing on
// two engine profiles, plus CLASH's global multi-query optimization.
const (
	FlinkIndependent Strategy = "FI"
	StormIndependent Strategy = "SI"
	FlinkShared      Strategy = "FS"
	StormShared      Strategy = "SS"
	CLASHMQO         Strategy = "CMQO"
)

// Strategies lists the Fig. 7 strategies in presentation order.
func Strategies() []Strategy {
	return []Strategy{FlinkIndependent, StormIndependent, FlinkShared, StormShared, CLASHMQO}
}

// engine overhead profiles: the per-message busy-work loops emulating
// the two engines' per-tuple costs (Flink's throughput is "a smidge
// higher", Sec. VII-A).
func overheadLoops(s Strategy) int {
	switch s {
	case FlinkIndependent, FlinkShared:
		return 0
	default:
		return 48
	}
}

// Fig7Config parameterizes the TPC-H multi-query experiment.
type Fig7Config struct {
	SF          float64       // TPC-H scale factor (paper: 10; default 0.002)
	NumQueries  int           // 5 or 10 (Fig. 7a workloads)
	Parallelism int           // store parallelism (default 2)
	Span        time.Duration // logical stream span (default 1s)
	Seed        uint64
}

func (c *Fig7Config) fill() {
	if c.SF == 0 {
		c.SF = 0.002
	}
	if c.NumQueries == 0 {
		c.NumQueries = 5
	}
	if c.Parallelism == 0 {
		c.Parallelism = 2
	}
	if c.Span == 0 {
		c.Span = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Fig7Result is one bar of Figs. 7b–7d.
type Fig7Result struct {
	Strategy      Strategy
	ThroughputTPS float64       // Fig. 7b
	MemoryBytes   int64         // Fig. 7c — resident state incl. index overhead
	IndexBytes    int64         // index-overhead portion of MemoryBytes
	AvgLatency    time.Duration // Fig. 7d
	ProbeTuples   int64
	Candidates    int64 // stored rows the local indices handed those probes (Snapshot.ProbeCandidates)
	FilterRejects int64 // per-epoch index lookups the index filters spared them (Snapshot.ProbeFilterRejects)
	Results       int64
	EvictedEpochs int64 // must stay 0: the Fig. 7 workload fits in memory
	Stores        int
	WallTime      time.Duration
}

// Fig7 runs all five strategies over the TPC-H workload and reports one
// result per strategy.
func Fig7(cfg Fig7Config) ([]Fig7Result, error) {
	cfg.fill()
	queries := tpch.Fig7Queries()
	if cfg.NumQueries >= 10 {
		queries = tpch.Fig7TenQueries()
	}
	cat := tpch.Catalog()

	// Data: generate once, interleave once.
	tables := involvedTables(queries)
	b := broker.New()
	if err := tpch.FillBroker(b, cfg.SF, cfg.Seed, tuple.Duration(cfg.Span), tables); err != nil {
		return nil, err
	}
	records := b.Interleave(tables...)

	est := EstimateFromRecords(cat, queries, records, cfg.Span)

	// Per-query plans are shared by the four baseline strategies; the
	// CMQO plan is solved once.
	opts := core.Options{
		StoreParallelism: cfg.Parallelism,
		Solver:           ilp.Options{TimeLimit: 3 * time.Second},
	}
	o := core.NewOptimizer(opts)
	individual, err := o.OptimizeIndividually(queries, est)
	if err != nil {
		return nil, err
	}
	joint, err := o.Optimize(queries, est)
	if err != nil {
		return nil, err
	}

	var out []Fig7Result
	for _, s := range Strategies() {
		plans := individual
		if s == CLASHMQO {
			plans = []*core.Plan{joint}
		}
		r, err := runFig7Strategy(s, plans, cat, records, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: strategy %s: %w", s, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func involvedTables(queries []*query.Query) []string {
	set := map[string]bool{}
	for _, q := range queries {
		for _, r := range q.Relations {
			set[r] = true
		}
	}
	var out []string
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// EstimateFromRecords runs the statistics pipeline over a record stream,
// exactly as the adaptive controller would: rates from counts,
// selectivities from reservoir-sample joins. Exposed for cmd/clash-run.
func EstimateFromRecords(cat *query.Catalog, queries []*query.Query, records []broker.Record, span time.Duration) *stats.Estimates {
	col := stats.NewCollector(512, 256, 7)
	schemas := map[string]*tuple.Schema{}
	for _, name := range cat.Names() {
		rel := cat.Relation(name)
		qualified := rel.QualifiedAttrs()
		schemas[name] = tuple.NewSchema(qualified...)
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

func runFig7Strategy(s Strategy, plans []*core.Plan, cat *query.Catalog, records []broker.Record, cfg Fig7Config) (Fig7Result, error) {
	shared := s == FlinkShared || s == StormShared || s == CLASHMQO
	topo, err := core.Compile(plans, core.CompileOptions{Shared: shared, Parallelism: cfg.Parallelism})
	if err != nil {
		return Fig7Result{}, err
	}

	// Synchronous execution: exact and deterministic, so all strategies
	// compute identical result sets and the throughput measure is the
	// serialized handling work (messages × per-message cost) — exactly
	// the quantity the probe-cost model optimizes.
	eng := runtime.New(runtime.Config{
		Catalog:       cat,
		OverheadLoops: overheadLoops(s),
		Synchronous:   true,
	})
	if err := eng.Install(topo, 0); err != nil {
		return Fig7Result{}, err
	}
	defer eng.Stop()

	start := time.Now()
	for _, r := range records {
		if err := eng.Ingest(r.Relation, r.TS, r.Vals...); err != nil {
			return Fig7Result{}, err
		}
	}
	eng.Drain()
	wall := time.Since(start)

	m := eng.Metrics().Snapshot()
	return Fig7Result{
		Strategy:      s,
		ThroughputTPS: float64(m.Ingested) / wall.Seconds(),
		MemoryBytes:   m.StoreBytes,
		IndexBytes:    m.IndexBytes,
		AvgLatency:    m.AvgLatency,
		ProbeTuples:   m.ProbeSent,
		Candidates:    m.ProbeCandidates,
		FilterRejects: m.ProbeFilterRejects,
		Results:       m.Results,
		EvictedEpochs: m.EvictedEpochs,
		Stores:        len(topo.Stores),
		WallTime:      wall,
	}, nil
}

// FormatFig7 renders the results as the rows of Figs. 7b–7d.
func FormatFig7(results []Fig7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %14s %14s %12s %14s %16s %13s %10s %8s\n",
		"strat", "throughput t/s", "memory MiB", "latency", "probe tuples", "candidates/probe", "rejects/probe", "results", "stores")
	for _, r := range results {
		probes := float64(max(r.ProbeTuples, 1))
		fmt.Fprintf(&b, "%-6s %14.0f %14.2f %12v %14d %16.3f %13.3f %10d %8d\n",
			r.Strategy, r.ThroughputTPS, float64(r.MemoryBytes)/(1<<20),
			r.AvgLatency.Round(time.Microsecond), r.ProbeTuples,
			float64(r.Candidates)/probes, float64(r.FilterRejects)/probes, r.Results, r.Stores)
	}
	return b.String()
}
