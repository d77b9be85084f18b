package core

import (
	"strings"
	"testing"

	"clash/internal/mir"
	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/workload"
)

// controllerStep is one churn step as the adaptive controller runs it
// (runtime/adaptive.go, reoptimizeLocked): the installed set changed by
// one query, the estimates are a snapshot nobody has seen before, and the
// joint optimizer runs twice — unrestricted, then with the composite MIRs
// of stores still warming up banned.
type controllerStep struct {
	queries []*query.Query
	est     *stats.Estimates
	banned  map[string]bool // composite MIR keys of the newest query
}

// controllerSchedule draws steps churn steps over the benchmark's
// query-churn shape: 24 random three-way joins over 40 relations,
// alternately admitting a fresh query and retiring the oldest.
func controllerSchedule(t testing.TB, steps int) []controllerStep {
	t.Helper()
	env := workload.NewEnv(40, 100)
	pool := env.RandomQueries(24+steps, 3, 1)
	if len(pool) < 24+steps {
		t.Fatalf("workload generation came up short (%d queries)", len(pool))
	}
	active, fresh := append([]*query.Query(nil), pool[:24]...), pool[24:]
	newest := active[len(active)-1]
	rels := env.Catalog().Names()
	out := make([]controllerStep, 0, steps+1)
	for s := 0; s <= steps; s++ {
		switch {
		case s == 0: // the priming step: the installed set as it starts
		case s%2 == 1:
			newest = fresh[s/2]
			active = append(active, newest)
		default:
			active = append([]*query.Query(nil), active[1:]...)
		}
		// A sealed epoch blended into history: every step prices the
		// candidates under rates that moved a little.
		est := env.Estimates().Clone()
		for i, rel := range rels {
			est.SetRate(rel, 100*(1+0.03*float64((i*7+s*11)%13-6)/6))
		}
		banned := map[string]bool{}
		for _, m := range mir.Enumerate([]*query.Query{newest}) {
			if !m.IsBase() {
				banned[m.Key()] = true
			}
		}
		out = append(out, controllerStep{
			queries: append([]*query.Query(nil), active...), est: est, banned: banned})
	}
	return out
}

func controllerOptions(r *Reopt) Options {
	opts := Options{DeterministicWarmStart: true, MaxCandidatesPerGroup: 12, Reopt: r}
	opts.Solver.MaxNodes = 2000
	return opts
}

// solveKeeping runs one joint solve and hands back the builder, whose
// warm report says what seeded the search.
func solveKeeping(t *testing.T, opts Options, qs []*query.Query, est *stats.Estimates) (*builder, *Plan) {
	t.Helper()
	b := newBuilder(opts, qs, est)
	plan, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	return b, plan
}

// TestWarmStartSurvivesTwoSolvesPerStep pins the churn path's warm start
// in the regime the engine runs it in: partition consistency on, a fresh
// estimates snapshot per step, node-capped, and two solves per step under
// different MIR eligibility. After the priming step the incumbent repair
// must be feasible (each solve repairs a selection of its own regime, and
// re-placed groups respect what the kept ones committed), it must seed
// the search at or below both greedy passes, and a step whose repair
// covered half the groups must not solve any query on its own again —
// while a cold solve, and a solve without cross-churn state, still do.
func TestWarmStartSurvivesTwoSolvesPerStep(t *testing.T) {
	steps := 12
	if testing.Short() {
		steps = 6
	}
	sched := controllerSchedule(t, steps)
	reopt := NewReopt()

	solves, feasible, children := 0, 0, 0
	for s, step := range sched {
		reopt.Advance()
		for _, restricted := range []bool{false, true} {
			opts := controllerOptions(reopt)
			if restricted {
				opts.MIREligible = func(key string) bool { return !step.banned[key] }
			}
			before := reopt.Stats()
			b, plan := solveKeeping(t, opts, step.queries, step.est)
			after := reopt.Stats()
			w := b.warm
			if after.JointSolves != before.JointSolves+1 ||
				after.ChildOptimizations != before.ChildOptimizations+uint64(w.childSolves) ||
				after.GroupsMatched != before.GroupsMatched+uint64(w.matched) {
				t.Fatalf("step %d: ReoptStats did not record the solve: %+v -> %+v, report %+v", s, before, after, w)
			}
			if w.seed < 0 {
				t.Fatalf("step %d restricted=%v: no warm start at all", s, restricted)
			}
			for _, marginal := range []bool{true, false} {
				if g := b.warmStartWith(marginal); g != nil {
					if obj := b.model.ObjectiveOf(g); w.obj > obj {
						t.Errorf("step %d restricted=%v: warm start %g above greedy(marginal=%v) %g", s, restricted, w.obj, marginal, obj)
					}
				}
			}
			if plan.Objective > w.obj*(1+1e-12) {
				t.Errorf("step %d restricted=%v: plan %g worse than its own warm start %g", s, restricted, plan.Objective, w.obj)
			}
			if s == 0 {
				// Cold: no incumbent of this regime yet. The Individual
				// baseline must still pin the search.
				if w.repaired || w.childSolves == 0 {
					t.Errorf("priming solve restricted=%v: repaired=%v, %d child optimizations; a cold start must solve every query on its own",
						restricted, w.repaired, w.childSolves)
				}
				continue
			}
			solves++
			if w.repaired {
				feasible++
			}
			if w.repaired && 2*w.matched >= w.groups {
				children += w.childSolves
			}
			if w.matched == 0 {
				t.Errorf("step %d restricted=%v: the incumbent matched none of %d groups", s, restricted, w.groups)
			}
		}
	}
	if 10*feasible < 9*solves {
		t.Errorf("incumbent repair feasible in %d of %d solves after the priming step, want at least 90%%", feasible, solves)
	}
	if children != 0 {
		t.Errorf("%d child optimizations ran on steps whose repair covered half the groups", children)
	}
	st := reopt.Stats()
	if st.RepairsFeasible != uint64(feasible) || st.RepairsFeasible+st.RepairsInfeasible+st.RepairsUnmatched != st.JointSolves {
		t.Errorf("repair outcomes do not add up: %+v (counted %d feasible)", st, feasible)
	}
	if st.SeededIncumbent == 0 {
		t.Errorf("the repaired incumbent never seeded a solve: %+v", st)
	}
	t.Logf("%d solves after priming: %d repairs feasible, groups matched %d/%d, seeded by incumbent %d / greedy %d+%d, %d child optimizations in all",
		solves, feasible, st.GroupsMatched, st.GroupsSeen, st.SeededIncumbent, st.SeededGreedyMarginal, st.SeededGreedyAbsolute, st.ChildOptimizations)

	// Without cross-churn state every solve is cold: the Fig. 9a pin.
	last := sched[len(sched)-1]
	opts := controllerOptions(nil)
	b, _ := solveKeeping(t, opts, last.queries, last.est)
	if b.warm.repaired || b.warm.childSolves != len(last.queries) {
		t.Errorf("Reopt == nil: repaired=%v, %d child optimizations for %d queries", b.warm.repaired, b.warm.childSolves, len(last.queries))
	}
}

// TestRepairPlacesCompatibly pins the repair's placement rule on its own:
// with one group's incumbent gone, the group is re-placed on a candidate
// whose partition decorations agree with what the kept groups committed,
// even when its cheapest candidate does not.
func TestRepairPlacesCompatibly(t *testing.T) {
	sched := controllerSchedule(t, 1)
	reopt := NewReopt()
	opts := controllerOptions(reopt)
	_, plan := solveKeeping(t, opts, sched[0].queries, sched[0].est)

	// Forget one group whose cheapest candidate clashes with the plan.
	b := newBuilder(opts, sched[0].queries, sched[0].est)
	b.enumerateMIRs()
	if err := b.generateCandidates(); err != nil {
		t.Fatal(err)
	}
	b.buildModel()
	st := newLSState(b)
	forgot := ""
	for _, d := range plan.Selected {
		if d.ForMIR != "" {
			continue
		}
		st.begin(nil)
		for _, o := range plan.Selected {
			if o.ForMIR == "" && o != d {
				st.commit(b.orderFor(o.Key()))
			}
		}
		cands := b.topGroups[d.Query.Name][d.Start]
		cheapest := cands[0]
		for _, c := range cands {
			if c.Cost < cheapest.Cost {
				cheapest = c
			}
		}
		if !st.compatible(cheapest) {
			forgot = incumbentKey(opts.regime(), d.Query.Name, d.Start)
			break
		}
	}
	if forgot == "" {
		t.Skip("no group's cheapest candidate clashes with this plan")
	}
	reopt.mu.Lock()
	delete(reopt.incumbent, forgot)
	reopt.mu.Unlock()

	vals := b.warmStartFromIncumbent()
	if vals == nil {
		t.Fatalf("repair gave up with %d of %d groups matched (dropped %q)", b.warm.matched, b.warm.groups, strings.ReplaceAll(forgot, "\x00", "/"))
	}
	if b.warm.matched != b.warm.groups-1 {
		t.Fatalf("matched %d of %d groups, want all but the forgotten one", b.warm.matched, b.warm.groups)
	}
	if err := b.model.Feasible(vals, 1e-5); err != nil {
		t.Fatalf("repaired selection infeasible: %v", err)
	}
}
