package bench

import (
	"fmt"
	"strings"
	"time"

	"clash/internal/core"
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
