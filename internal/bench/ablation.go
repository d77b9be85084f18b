package bench

import (
	"fmt"
	"strings"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/tuple"
	"clash/internal/workload"
)

// Ablation quantifies the design choices DESIGN.md calls out by
// re-optimizing the same workload with individual features disabled and
// reporting the probe-cost objective of each variant.
type Ablation struct {
	Variant   string
	Objective float64
	Variables int
	Runtime   time.Duration
	Status    string
}

// Ablations runs the ablation suite over a random workload drawn from
// the Sec. VII-C environment.
func Ablations(relations, nQ, size int, seed uint64) ([]Ablation, error) {
	env := workload.NewEnv(relations, 100)
	qs := env.RandomQueries(nQ, size, seed)
	est := env.Estimates()

	base := countedBudget(core.Options{
		StoreParallelism:       4,
		NoPartitionConsistency: true,
	})
	variants := []struct {
		name string
		mod  func(core.Options) core.Options
	}{
		{"full (step sharing, MIRs, partitioning)", func(o core.Options) core.Options { return o }},
		{"no MIR materialization", func(o core.Options) core.Options { o.DisableMIRs = true; return o }},
		{"no partition decorations (always broadcast)", func(o core.Options) core.Options { o.DisablePartitioning = true; return o }},
		{"χ ≡ 1 (broadcast penalty ignored)", func(o core.Options) core.Options { o.UniformChi = true; return o }},
		{"materialization priced", func(o core.Options) core.Options { o.MaterializationCost = true; return o }},
		{"strict partition consistency", func(o core.Options) core.Options { o.NoPartitionConsistency = false; return o }},
	}

	var out []Ablation
	for _, v := range variants {
		o := core.NewOptimizer(v.mod(base))
		start := time.Now()
		plan, err := o.Optimize(qs, est)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %q: %w", v.name, err)
		}
		out = append(out, Ablation{
			Variant:   v.name,
			Objective: plan.Objective,
			Variables: plan.Stats.Variables,
			Runtime:   time.Since(start),
			Status:    plan.Stats.Status.String(),
		})
	}
	// The no-sharing reference: summed per-query optima.
	o := core.NewOptimizer(base)
	start := time.Now()
	indiv, err := o.IndividualCost(qs, est)
	if err != nil {
		return nil, err
	}
	out = append(out, Ablation{
		Variant:   "individual optimization (no step sharing)",
		Objective: indiv,
		Runtime:   time.Since(start),
		Status:    "optimal",
	})
	return out, nil
}

// SkewAblation reports the runtime-level two-choice-routing trade
// (DESIGN.md §5): maximum task load and probe tuples of a skewed
// symmetric join with single-choice vs. two-choice routing.
type SkewAblation struct {
	Routing     string
	MaxTaskLoad int64
	ProbeTuples int64
	Results     int64
}

// SkewAblations runs a hot-key workload (hotShare of the tuples carry
// one key) over a P-way partitioned symmetric join under both routing
// modes.
func SkewAblations(n, parallelism int, hotPermille int) ([]SkewAblation, error) {
	run := func(twoChoice bool) (SkewAblation, error) {
		qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
		if err != nil {
			return SkewAblation{}, err
		}
		est := stats.NewEstimates(0.01)
		est.SetRate("R", 100)
		est.SetRate("S", 100)
		plan, err := core.NewOptimizer(core.Options{StoreParallelism: parallelism}).Optimize(qs, est)
		if err != nil {
			return SkewAblation{}, err
		}
		topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
		if err != nil {
			return SkewAblation{}, err
		}
		eng := runtime.New(runtime.Config{
			Catalog:          cat,
			Synchronous:      true,
			TwoChoiceRouting: twoChoice,
		})
		defer eng.Stop()
		if err := eng.Install(topo, 0); err != nil {
			return SkewAblation{}, err
		}
		r := rng.New(7)
		for i := 0; i < n; i++ {
			rel := "R"
			if i%2 == 1 {
				rel = "S"
			}
			key := int64(0)
			if int(r.Uint64()%1000) >= hotPermille {
				key = 1 + r.Int64n(64)
			}
			if err := eng.Ingest(rel, tuple.Time(i+1), tuple.IntValue(key)); err != nil {
				return SkewAblation{}, err
			}
		}
		m := eng.Metrics().Snapshot()
		var worst int64
		for _, sizes := range eng.TaskSizes() {
			for _, s := range sizes {
				if s > worst {
					worst = s
				}
			}
		}
		name := "single-choice hash"
		if twoChoice {
			name = "two-choice (PKG-style)"
		}
		return SkewAblation{Routing: name, MaxTaskLoad: worst, ProbeTuples: m.ProbeSent, Results: m.Results}, nil
	}
	single, err := run(false)
	if err != nil {
		return nil, err
	}
	double, err := run(true)
	if err != nil {
		return nil, err
	}
	if single.Results != double.Results {
		return nil, fmt.Errorf("bench: skew ablation result mismatch: %d vs %d", single.Results, double.Results)
	}
	return []SkewAblation{single, double}, nil
}

// FormatSkewAblations renders the skew-routing table.
func FormatSkewAblations(rows []SkewAblation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %14s %10s\n", "routing", "max task load", "probe tuples", "results")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %14d %14d %10d\n", r.Routing, r.MaxTaskLoad, r.ProbeTuples, r.Results)
	}
	return b.String()
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []Ablation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-46s %14s %9s %10s %8s\n", "variant", "probe cost", "vars", "runtime", "status")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-46s %14.5g %9d %10v %8s\n",
			r.Variant, r.Objective, r.Variables, r.Runtime.Round(time.Millisecond), r.Status)
	}
	return b.String()
}
