package bench

// Skew benchmark: a zipf-keyed TPC-H orders ⋈ lineitem stream executed
// under two plans over identical data — one optimized from uniform
// (degree-free) estimates, one from estimates whose degree sketches
// expose the heavy hitters, so the optimizer prices the hot partition
// (cost.SkewFactor) and splits the hot keys across two tasks
// (topology.Store.SplitKeys). Reported per plan: probe wall time per
// tuple, handled-tuple imbalance (max/mean across tasks), and the
// result count, which must be identical — skew routing changes
// placement, never the answer.

import (
	"fmt"
	"strings"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/tpch"
	"clash/internal/tuple"
)

// SkewConfig parameterizes the skew scenario. Zero values select the
// defaults noted per field.
type SkewConfig struct {
	Tuples      int     // stream length (default 20000)
	Parallelism int     // store parallelism (default 4)
	Keys        int     // order-key universe (default 512)
	ZipfS       float64 // zipf exponent; rank-1 key dominates (default 1.3)
	Seed        uint64  // stream seed
}

func (c *SkewConfig) defaults() {
	if c.Tuples <= 0 {
		c.Tuples = 20000
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Keys <= 0 {
		c.Keys = 512
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.3
	}
}

// SkewResult is one plan's run over the zipf stream.
type SkewResult struct {
	Plan            string // "uniform-cost" | "degree-aware"
	SplitKeys       int
	ProbeNsPerTuple float64
	Imbalance       float64 // max/mean handled tuples per task
	MaxTaskLoad     int64
	Results         int64
}

// skewStream materializes the zipf-keyed record stream once; both plans
// and the statistics collector consume the identical data.
type skewRecord struct {
	rel  string
	ts   tuple.Time
	vals []tuple.Value
}

func skewStream(cfg SkewConfig) []skewRecord {
	r := rng.New(cfg.Seed ^ 0x5cebbeef)
	z := rng.NewZipf(r, cfg.Keys, cfg.ZipfS)
	out := make([]skewRecord, 0, cfg.Tuples)
	for i := 0; i < cfg.Tuples; i++ {
		key := int64(z.Draw())
		ts := tuple.Time(i + 1)
		if i%2 == 0 {
			out = append(out, skewRecord{rel: tpch.Orders, ts: ts, vals: []tuple.Value{
				tuple.IntValue(key),                    // o_orderkey
				tuple.IntValue(r.Int64n(1000)),         // o_custkey
				tuple.StringValue("O"),                 // o_orderstatus
				tuple.IntValue(1000 + r.Int64n(90000)), // o_totalprice
			}})
		} else {
			out = append(out, skewRecord{rel: tpch.LineItem, ts: ts, vals: []tuple.Value{
				tuple.IntValue(key),            // l_orderkey
				tuple.IntValue(r.Int64n(2000)), // l_partkey
				tuple.IntValue(r.Int64n(100)),  // l_suppkey
				tuple.IntValue(r.Int64n(7)),    // l_linenumber
				tuple.IntValue(r.Int64n(50)),   // l_quantity
				tuple.StringValue("O"),         // l_linestatus
			}})
		}
	}
	return out
}

// Skew runs the scenario under both plans and returns the two rows
// (uniform-cost first). It fails when the plans disagree on results,
// when the degree-aware plan declares no split keys (vacuous run), or
// when splitting does not reduce the imbalance.
func Skew(cfg SkewConfig) ([]SkewResult, error) {
	cfg.defaults()
	cat := tpch.Catalog()
	pred := query.Predicate{
		Left:  query.Attr{Rel: tpch.LineItem, Name: "l_orderkey"},
		Right: query.Attr{Rel: tpch.Orders, Name: "o_orderkey"},
	}.Normalize()
	q, err := query.NewQuery("qskew", []string{tpch.Orders, tpch.LineItem}, []query.Predicate{pred})
	if err != nil {
		return nil, err
	}
	stream := skewStream(cfg)

	// Seal estimates from the stream exactly as the adaptive controller
	// would; the uniform variant is the same snapshot with the degree
	// sketches stripped, isolating the skew term.
	col := stats.NewCollector(512, 256, 7)
	schemas := map[string]*tuple.Schema{}
	for _, name := range []string{tpch.Orders, tpch.LineItem} {
		schemas[name] = tuple.NewSchema(cat.Relation(name).QualifiedAttrs()...)
	}
	for _, rec := range stream {
		col.Observe(rec.rel, tuple.New(schemas[rec.rel], rec.ts, rec.vals...))
	}
	degreeEst := col.Seal(time.Second, q.Preds)
	uniformEst := degreeEst.Clone()
	uniformEst.Degrees = map[string]*stats.AttrDegrees{}

	run := func(name string, est *stats.Estimates) (SkewResult, error) {
		plan, err := core.NewOptimizer(core.Options{StoreParallelism: cfg.Parallelism}).Optimize([]*query.Query{q}, est)
		if err != nil {
			return SkewResult{}, err
		}
		topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
		if err != nil {
			return SkewResult{}, err
		}
		nSplit := 0
		for _, s := range topo.Stores {
			nSplit += len(s.SplitKeys)
		}
		eng := runtime.New(runtime.Config{Catalog: cat, Synchronous: true})
		defer eng.Stop()
		if err := eng.Install(topo, 0); err != nil {
			return SkewResult{}, err
		}
		start := time.Now()
		for _, rec := range stream {
			if err := eng.Ingest(rec.rel, rec.ts, rec.vals...); err != nil {
				return SkewResult{}, err
			}
		}
		elapsed := time.Since(start)
		var maxH, sumH int64
		tasks := 0
		for _, g := range eng.TaskGauges() {
			tasks++
			sumH += g.Handled
			if g.Handled > maxH {
				maxH = g.Handled
			}
		}
		res := SkewResult{
			Plan:            name,
			SplitKeys:       nSplit,
			ProbeNsPerTuple: float64(elapsed.Nanoseconds()) / float64(len(stream)),
			Results:         eng.Metrics().Snapshot().Results,
			MaxTaskLoad:     maxH,
		}
		if tasks > 0 && sumH > 0 {
			res.Imbalance = float64(maxH) / (float64(sumH) / float64(tasks))
		}
		return res, nil
	}

	uniform, err := run("uniform-cost", uniformEst)
	if err != nil {
		return nil, err
	}
	degree, err := run("degree-aware", degreeEst)
	if err != nil {
		return nil, err
	}
	if uniform.Results != degree.Results {
		return nil, fmt.Errorf("bench: skew plans disagree on results: uniform %d, degree-aware %d",
			uniform.Results, degree.Results)
	}
	if uniform.SplitKeys != 0 {
		return nil, fmt.Errorf("bench: uniform-cost plan declared %d split keys, want 0", uniform.SplitKeys)
	}
	if degree.SplitKeys == 0 {
		return nil, fmt.Errorf("bench: degree-aware plan declared no split keys — the scenario is vacuous")
	}
	if degree.Imbalance >= uniform.Imbalance {
		return nil, fmt.Errorf("bench: degree-aware imbalance %.2f did not drop below uniform %.2f",
			degree.Imbalance, uniform.Imbalance)
	}
	return []SkewResult{uniform, degree}, nil
}

// FormatSkew renders the skew table.
func FormatSkew(rows []SkewResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %14s %12s %14s %10s\n",
		"plan", "split keys", "probe ns/tuple", "imbalance", "max task load", "results")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10d %14.1f %12.2f %14d %10d\n",
			r.Plan, r.SplitKeys, r.ProbeNsPerTuple, r.Imbalance, r.MaxTaskLoad, r.Results)
	}
	return b.String()
}
