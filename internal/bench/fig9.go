package bench

import (
	"fmt"
	"strings"
	"time"

	"clash/internal/core"
	"clash/internal/workload"
)

// Fig9Config parameterizes the ILP scaling experiments (Sec. VII-C):
// random queries over a simulated environment of Relations inputs with
// uniform rates and selectivity rate⁻¹.
type Fig9Config struct {
	Relations   int     // 10 (Figs. 9a/9b) or 100 (Figs. 9c–9f)
	Rate        float64 // arrival rate per relation (default 100)
	QuerySize   int     // relations per query (default 3)
	Parallelism int     // store parallelism (default 4)
	Seed        uint64
	// CapCandidates caps decorated candidates per group (0 = off),
	// trading optimality for build/solve time on size-5 queries.
	CapCandidates int
}

func (c *Fig9Config) fill() {
	if c.Relations == 0 {
		c.Relations = 10
	}
	if c.Rate == 0 {
		c.Rate = 100
	}
	if c.QuerySize == 0 {
		c.QuerySize = 3
	}
	if c.Parallelism == 0 {
		c.Parallelism = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// options is the optimizer configuration of every Fig. 9 solve. Each
// is bounded by solveNodes; a run that exhausts the budget reports the
// incumbent (status "limit"). Gurobi needs no such bound at these sizes;
// our propagation-based solver does for the largest shared instances.
func (c *Fig9Config) options() core.Options {
	return countedBudget(core.Options{
		StoreParallelism:      c.Parallelism,
		MaxCandidatesPerGroup: c.CapCandidates,
		// The paper's Sec. V formulation: partition-decorated
		// candidates without cross-query consistency rows. This is
		// what Fig. 9 evaluates; TestFig9CostShapes pins MQO ≤
		// Individual on it.
		NoPartitionConsistency: true,
	})
}

// Fig9Point is one x-position of Figs. 9a–9e.
type Fig9Point struct {
	NQ          int
	Individual  float64 // summed per-query optimal probe cost (Fig. 9a/9c)
	MQO         float64 // shared-plan probe cost
	Variables   int     // Fig. 9b/9d
	ProbeOrders int     // Fig. 9b/9d
	Constraints int
	Runtime     time.Duration // Fig. 9e (build + solve)
	Status      string
}

// Fig9Cost runs the probe-cost and problem-size series for the given
// query counts (the paper sweeps nQ = 20..100).
func Fig9Cost(cfg Fig9Config, nQs []int) ([]Fig9Point, error) {
	cfg.fill()
	env := workload.NewEnv(cfg.Relations, cfg.Rate)
	est := env.Estimates()
	var out []Fig9Point
	for _, nQ := range nQs {
		qs := env.RandomQueries(nQ, cfg.QuerySize, cfg.Seed)
		o := core.NewOptimizer(cfg.options())
		indiv, err := o.IndividualCost(qs, est)
		if err != nil {
			return nil, fmt.Errorf("bench: fig9 individual nQ=%d: %w", nQ, err)
		}
		plan, err := o.Optimize(qs, est)
		if err != nil {
			return nil, fmt.Errorf("bench: fig9 MQO nQ=%d: %w", nQ, err)
		}
		out = append(out, Fig9Point{
			NQ:          len(qs),
			Individual:  indiv,
			MQO:         plan.Objective,
			Variables:   plan.Stats.Variables,
			ProbeOrders: plan.Stats.ProbeOrders,
			Constraints: plan.Stats.Constraints,
			Runtime:     plan.Stats.BuildTime + plan.Stats.WarmStartTime + plan.Stats.SolveTime,
			Status:      plan.Stats.Status.String(),
		})
	}
	return out, nil
}

// Fig9SizePoint is one cell of Fig. 9f: optimization runtime for a given
// query size and query count.
type Fig9SizePoint struct {
	QuerySize int
	NQ        int
	Runtime   time.Duration
	Variables int
	Status    string
}

// Fig9QuerySizes sweeps query sizes (the paper: 3–5) for each query
// count (the paper: 10, 20, 30) over a 100-relation environment.
func Fig9QuerySizes(cfg Fig9Config, sizes []int, nQs []int) ([]Fig9SizePoint, error) {
	cfg.fill()
	env := workload.NewEnv(cfg.Relations, cfg.Rate)
	est := env.Estimates()
	var out []Fig9SizePoint
	for _, size := range sizes {
		for _, nQ := range nQs {
			qs := env.RandomQueries(nQ, size, cfg.Seed)
			plan, err := core.NewOptimizer(cfg.options()).Optimize(qs, est)
			if err != nil {
				return nil, fmt.Errorf("bench: fig9f size=%d nQ=%d: %w", size, nQ, err)
			}
			out = append(out, Fig9SizePoint{
				QuerySize: size,
				NQ:        len(qs),
				Runtime:   plan.Stats.BuildTime + plan.Stats.WarmStartTime + plan.Stats.SolveTime,
				Variables: plan.Stats.Variables,
				Status:    plan.Stats.Status.String(),
			})
		}
	}
	return out, nil
}

// FormatFig9Cost renders the cost/size series (Figs. 9a–9e rows).
func FormatFig9Cost(points []Fig9Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %14s %14s %9s %9s %12s %10s %8s\n",
		"nQ", "individual", "MQO", "saved", "vars", "probe-orders", "runtime", "status")
	for _, p := range points {
		saved := 0.0
		if p.Individual > 0 {
			saved = 100 * (1 - p.MQO/p.Individual)
		}
		fmt.Fprintf(&b, "%5d %14.4g %14.4g %8.1f%% %9d %12d %10v %8s\n",
			p.NQ, p.Individual, p.MQO, saved, p.Variables, p.ProbeOrders,
			p.Runtime.Round(time.Millisecond), p.Status)
	}
	return b.String()
}

// FormatFig9Sizes renders the Fig. 9f rows.
func FormatFig9Sizes(points []Fig9SizePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %5s %12s %9s %8s\n", "size", "nQ", "runtime", "vars", "status")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %5d %12v %9d %8s\n",
			p.QuerySize, p.NQ, p.Runtime.Round(time.Millisecond), p.Variables, p.Status)
	}
	return b.String()
}
