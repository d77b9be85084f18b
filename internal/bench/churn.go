package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/workload"
)

// ChurnConfig parameterizes the incremental re-optimization benchmark
// (DESIGN.md §14): a Fig. 9-regime workload where the active query set
// churns one query at a time and the optimizer re-runs after every
// step — once from scratch and once with cross-churn state (incumbent
// warm start, MIR memo, component-solution cache).
type ChurnConfig struct {
	Relations int     // environment size (default 100, the Fig. 9c regime)
	Rate      float64 // arrival rate per relation (default 100)
	QuerySize int     // relations per query (default 3)
	Seed      uint64
	Steps     int // churn steps per query count (default 5)
	// MaxNodes bounds each BnB solve by explored nodes instead of wall
	// time, so both arms are deterministic and plan costs repeat exactly
	// (default 200k).
	MaxNodes int
	// CapCandidates caps decorated candidates per group (the Fig. 9f
	// knob): at 1k queries over 100 relations the sharing graph is
	// dense enough that uncapped models dwarf the node budget in both
	// arms and the comparison measures only the cap (default 12).
	CapCandidates int
}

func (c *ChurnConfig) fill() {
	if c.Relations == 0 {
		c.Relations = 100
	}
	if c.Rate == 0 {
		c.Rate = 100
	}
	if c.QuerySize == 0 {
		c.QuerySize = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Steps == 0 {
		c.Steps = 5
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 200000
	}
	if c.CapCandidates == 0 {
		c.CapCandidates = 12
	}
}

// ChurnResult is one query-count row of the churn series: plan costs,
// node counts and the memo hit rate are deterministic in the config;
// the wall times are printed only. The candidate times are the part of
// the wall spent generating or fetching and pricing decorated candidates
// (core.ProblemStats.CandidateTime).
type ChurnResult struct {
	NQ              int
	Steps           int
	ScratchWallNS   int64
	IncrementalWall int64
	ScratchCandNS   int64
	IncrementalCand int64
	ScratchNodes    int
	IncrementalNode int
	MemoHitRate     float64
	ScratchCost     float64
	IncrementalCost float64
	// Reopt is the incremental arm's cross-churn state at the end of the
	// run: what the caches and the warm start did, solve by solve.
	Reopt core.ReoptStats
}

// Speedup is the scratch/incremental optimizer wall-time ratio.
func (r ChurnResult) Speedup() float64 {
	if r.IncrementalWall == 0 {
		return 0
	}
	return float64(r.ScratchWallNS) / float64(r.IncrementalWall)
}

// Churn runs the churn sweep for each query count: seed an active set,
// prime the incremental optimizer once (untimed — the steady-state
// regime is what re-optimization lives in), then re-optimize after
// every single-query churn step (alternating: admit a fresh query,
// retire the oldest) both from scratch and incrementally. The
// incremental plan must cost no more than the scratch plan at every
// step; both arms run under the same deterministic node budget.
func Churn(cfg ChurnConfig, nQs []int) ([]ChurnResult, error) {
	cfg.fill()
	var out []ChurnResult
	for _, nQ := range nQs {
		r, err := churnOne(cfg, nQ)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func churnOne(cfg ChurnConfig, nQ int) (ChurnResult, error) {
	env := workload.NewEnv(cfg.Relations, cfg.Rate)
	est := env.Estimates()
	pool := env.RandomQueries(nQ+cfg.Steps, cfg.QuerySize, cfg.Seed)
	if len(pool) < nQ+cfg.Steps {
		return ChurnResult{}, fmt.Errorf("bench: churn nQ=%d: workload generation came up short (%d queries)", nQ, len(pool))
	}
	active := append([]*query.Query(nil), pool[:nQ]...)
	fresh := pool[nQ:]

	base := core.Options{
		NoPartitionConsistency: true, // the Fig. 9 regime
		MaxCandidatesPerGroup:  cfg.CapCandidates,
	}
	base.Solver.MaxNodes = cfg.MaxNodes

	reopt := core.NewReopt()
	inc := base
	inc.Reopt = reopt

	// Prime the cross-churn state with the pre-churn query set.
	if _, err := core.NewOptimizer(inc).Optimize(active, est); err != nil {
		return ChurnResult{}, fmt.Errorf("bench: churn nQ=%d prime: %w", nQ, err)
	}

	res := ChurnResult{NQ: nQ, Steps: cfg.Steps}
	for step := 0; step < cfg.Steps; step++ {
		// Single-query churn: grow by one fresh query, then shrink by
		// the oldest — each step changes exactly one installed query.
		if step%2 == 0 {
			active = append(active, fresh[step/2])
		} else {
			active = append([]*query.Query(nil), active[1:]...)
		}

		t0 := time.Now()
		scratch, err := core.NewOptimizer(base).Optimize(active, est)
		if err != nil {
			return ChurnResult{}, fmt.Errorf("bench: churn nQ=%d step %d scratch: %w", nQ, step, err)
		}
		res.ScratchWallNS += time.Since(t0).Nanoseconds()
		res.ScratchCandNS += scratch.Stats.CandidateTime.Nanoseconds()

		reopt.Advance()
		t0 = time.Now()
		incr, err := core.NewOptimizer(inc).Optimize(active, est)
		if err != nil {
			return ChurnResult{}, fmt.Errorf("bench: churn nQ=%d step %d incremental: %w", nQ, step, err)
		}
		res.IncrementalWall += time.Since(t0).Nanoseconds()
		res.IncrementalCand += incr.Stats.CandidateTime.Nanoseconds()

		res.ScratchNodes += scratch.Stats.Nodes
		res.IncrementalNode += incr.Stats.Nodes
		res.ScratchCost += scratch.Objective
		res.IncrementalCost += incr.Objective
		if incr.Objective > scratch.Objective+1e-6 {
			return ChurnResult{}, fmt.Errorf("bench: churn nQ=%d step %d: incremental cost %g exceeds scratch %g",
				nQ, step, incr.Objective, scratch.Objective)
		}
	}
	res.Reopt = reopt.Stats()
	if s := res.Reopt; s.MemoHits+s.MemoMisses > 0 {
		res.MemoHitRate = float64(s.MemoHits) / float64(s.MemoHits+s.MemoMisses)
	}
	return res, nil
}

// ChurnEngineResult is one query-count row of the engine-regime arm.
// Every field but the wall and candidate times is deterministic in the
// config.
type ChurnEngineResult struct {
	NQ     int
	Steps  int
	WallNS int64
	CandNS int64
	Nodes  int
	Cost   float64 // Σ objective of the restricted (installable) plans
	// Reopt counts every joint solve of the run, the two priming solves
	// included; the arm's verdict is over the solves after them.
	Reopt core.ReoptStats
}

// warmupSteps is how many churn steps a newly wanted MIR store stays
// banned from the restricted solve in the engine-regime arm, standing in
// for the window a real store needs to fill.
const warmupSteps = 2

// ChurnEngineRegime runs the churn schedule the way the adaptive
// controller does (runtime/adaptive.go), which the scratch-vs-incremental
// arm above does not: partition-consistency rows on, a fresh estimates
// snapshot at every step (an epoch was sealed and blended), and two joint
// solves per step on one core.Reopt — unrestricted, then restricted to
// the composite MIR stores that have been wanted for warmupSteps steps.
// It is the only place outside the benchmark where the warm start's
// repair is exercised under the conditions that once broke it, so it
// returns an error — clash-bench exits non-zero — when, after the priming
// step, more than one repair in ten is infeasible, or a free solve misses
// the candidate-structure cache for more top-level groups than there are
// queries sharing a relation with the query the step added or removed (a
// new estimates snapshot must re-price cached structure, not regenerate
// it).
func ChurnEngineRegime(cfg ChurnConfig, nQ int) (ChurnEngineResult, error) {
	cfg.fill()
	env := workload.NewEnv(cfg.Relations, cfg.Rate)
	pool := env.RandomQueries(nQ+cfg.Steps, cfg.QuerySize, cfg.Seed)
	if len(pool) < nQ+cfg.Steps {
		return ChurnEngineResult{}, fmt.Errorf("bench: churn nQ=%d: workload generation came up short (%d queries)", nQ, len(pool))
	}
	active := append([]*query.Query(nil), pool[:nQ]...)
	fresh := pool[nQ:]
	rels := env.Catalog().Names()

	reopt := core.NewReopt()
	opts := core.Options{
		MaxCandidatesPerGroup: cfg.CapCandidates,
		Reopt:                 reopt,
	}
	opts.Solver.MaxNodes = cfg.MaxNodes

	res := ChurnEngineResult{NQ: nQ, Steps: cfg.Steps}
	wantedSince := map[string]int{} // composite MIR key -> step the free plan first used it
	solves, infeasible := 0, 0
	for step := 0; step <= cfg.Steps; step++ {
		var changed *query.Query // the query the step added or removed
		switch {
		case step == 0: // priming: the installed set as the engine starts
		case step%2 == 1:
			changed = fresh[step/2]
			active = append(active, changed)
		default:
			changed = active[0]
			active = append([]*query.Query(nil), active[1:]...)
		}
		est := env.Estimates().Clone()
		for i, rel := range rels {
			est.SetRate(rel, cfg.Rate*(1+0.03*float64((i*7+step*11)%13-6)/6))
		}
		reopt.Advance()
		mature := func(key string) bool {
			since, ok := wantedSince[key]
			return ok && (since == 0 || step-since >= warmupSteps)
		}
		for _, elig := range []func(string) bool{nil, mature} {
			o := opts
			o.MIREligible = elig
			before := reopt.Stats()
			t0 := time.Now()
			plan, err := core.NewOptimizer(o).Optimize(active, est)
			if err != nil {
				return ChurnEngineResult{}, fmt.Errorf("bench: churn engine regime nQ=%d step %d: %w", nQ, step, err)
			}
			res.WallNS += time.Since(t0).Nanoseconds()
			res.CandNS += plan.Stats.CandidateTime.Nanoseconds()
			res.Nodes += plan.Stats.Nodes
			after := reopt.Stats()
			if elig == nil && changed != nil {
				if misses, neighbours := after.TopMisses-before.TopMisses, sharingRelation(active, changed); misses > uint64(neighbours) {
					return ChurnEngineResult{}, fmt.Errorf("bench: churn engine regime nQ=%d step %d: the free solve missed %d cached top-level groups, but only %d queries share a relation with %s",
						nQ, step, misses, neighbours, changed.Name)
				}
			}
			if elig == nil {
				// What the free plan wants decides what warms up.
				wanted := map[string]bool{}
				for _, key := range plan.UsedStores() {
					if strings.Contains(key, "+") {
						wanted[key] = true
						if _, ok := wantedSince[key]; !ok {
							wantedSince[key] = step
						}
					}
				}
				for key := range wantedSince {
					if !wanted[key] {
						delete(wantedSince, key)
					}
				}
			} else {
				res.Cost += plan.Objective
			}
			if step == 0 {
				continue
			}
			solves++
			if after.RepairsFeasible == before.RepairsFeasible {
				infeasible++
			}
		}
	}
	res.Reopt = reopt.Stats()
	if 10*infeasible > solves {
		return ChurnEngineResult{}, fmt.Errorf("bench: churn engine regime nQ=%d: incumbent repair failed in %d of %d solves after the priming step (more than 10%%): %+v",
			nQ, infeasible, solves, res.Reopt)
	}
	return res, nil
}

// sharingRelation counts the queries that join at least one relation of q.
func sharingRelation(queries []*query.Query, q *query.Query) int {
	n := 0
	for _, o := range queries {
		for _, rel := range o.Relations {
			if slices.Contains(q.Relations, rel) {
				n++
				break
			}
		}
	}
	return n
}

// FormatReoptStats renders what the cross-churn state did in each arm:
// joint solves, how the incumbent repairs went, which warm-start variant
// seeded the search, and the hit/miss counts of the candidate-structure
// caches (top-level, feeding).
func FormatReoptStats(scratchVsIncr []ChurnResult, engine []ChurnEngineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %7s %17s %14s %17s %13s %13s\n",
		"arm", "nQ", "solves", "repair ok/bad/none", "groups kept", "seed inc/gm/ga/ls", "top hit/miss", "feed hit/miss")
	row := func(arm string, nQ int, s core.ReoptStats) {
		fmt.Fprintf(&b, "%-8s %6d %7d %17s %14s %17s %13s %13s\n", arm, nQ, s.JointSolves,
			fmt.Sprintf("%d/%d/%d", s.RepairsFeasible, s.RepairsInfeasible, s.RepairsUnmatched),
			fmt.Sprintf("%d/%d", s.GroupsMatched, s.GroupsSeen),
			fmt.Sprintf("%d/%d/%d/%d", s.SeededIncumbent, s.SeededGreedyMarginal, s.SeededGreedyAbsolute, s.SeededLocalSearch),
			fmt.Sprintf("%d/%d", s.TopHits, s.TopMisses), fmt.Sprintf("%d/%d", s.FeedHits, s.FeedMisses))
	}
	for _, r := range scratchVsIncr {
		row("incr", r.NQ, r.Reopt)
	}
	for _, r := range engine {
		row("engine", r.NQ, r.Reopt)
	}
	return b.String()
}

// FormatChurnEngine renders the engine-regime rows.
func FormatChurnEngine(rows []ChurnEngineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %6s %12s %12s %10s %14s\n", "nQ", "steps", "wall", "candidates", "nodes", "plan-cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6d %12v %12v %10d %14.6g\n", r.NQ, r.Steps,
			time.Duration(r.WallNS).Round(time.Millisecond), time.Duration(r.CandNS).Round(time.Millisecond), r.Nodes, r.Cost)
	}
	return b.String()
}

// FormatChurn renders the churn series.
func FormatChurn(rows []ChurnResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %6s %12s %12s %8s %10s %10s %10s %10s %8s %14s %14s\n",
		"nQ", "steps", "scratch", "incr", "speedup", "scr-cand", "incr-cand", "scr-nodes", "incr-nodes", "memo%", "scratch-cost", "incr-cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6d %12v %12v %7.1fx %10v %10v %10d %10d %7.1f%% %14.6g %14.6g\n",
			r.NQ, r.Steps,
			time.Duration(r.ScratchWallNS).Round(time.Millisecond),
			time.Duration(r.IncrementalWall).Round(time.Millisecond),
			r.Speedup(),
			time.Duration(r.ScratchCandNS).Round(time.Millisecond),
			time.Duration(r.IncrementalCand).Round(time.Millisecond),
			r.ScratchNodes, r.IncrementalNode,
			100*r.MemoHitRate, r.ScratchCost, r.IncrementalCost)
	}
	return b.String()
}
