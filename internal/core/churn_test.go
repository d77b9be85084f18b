package core

import (
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"clash/internal/mir"
	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/workload"
)

// controllerStep is one churn step as the adaptive controller runs it
// (runtime/adaptive.go, Controller.solve): the installed set changed by
// one query, the estimates are a snapshot nobody has seen before, and the
// joint optimizer runs twice — unrestricted, then with the composite MIRs
// of stores still warming up banned.
type controllerStep struct {
	queries []*query.Query
	est     *stats.Estimates
	banned  map[string]bool // composite MIR keys of the newest query
	changed *query.Query    // the query the step added or removed; nil when priming
}

// controllerSchedule draws steps churn steps over the benchmark's
// query-churn shape — nQ random three-way joins over 40 relations (24 in
// the benchmark) drawn from seed — alternately admitting a fresh query
// and retiring the oldest.
func controllerSchedule(t testing.TB, nQ int, seed uint64, steps int) []controllerStep {
	t.Helper()
	env := workload.NewEnv(40, 100)
	pool := env.RandomQueries(nQ+steps, 3, seed)
	if len(pool) < nQ+steps {
		t.Fatalf("workload generation came up short (%d queries)", len(pool))
	}
	active, fresh := append([]*query.Query(nil), pool[:nQ]...), pool[nQ:]
	newest := active[len(active)-1]
	rels := env.Catalog().Names()
	out := make([]controllerStep, 0, steps+1)
	for s := 0; s <= steps; s++ {
		var changed *query.Query
		switch {
		case s == 0: // the priming step: the installed set as it starts
		case s%2 == 1:
			newest = fresh[s/2]
			changed = newest
			active = append(active, newest)
		default:
			changed = active[0]
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
			queries: append([]*query.Query(nil), active...), est: est, banned: banned, changed: changed})
	}
	return out
}

func controllerOptions(r *Reopt) Options {
	opts := Options{MaxCandidatesPerGroup: 12, Reopt: r}
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
// different MIR eligibility. Every solve, the cold ones included, must be
// seeded at or below both greedy passes and end no worse than its seed.
// After the priming step the incumbent repair must be feasible (each
// solve repairs a selection of its own regime, and re-placed groups
// respect what the kept ones committed), and a free solve must miss the
// candidate-structure cache for at most as many top-level groups as
// there are queries sharing a relation with the step's changed query: a
// new estimates snapshot re-prices cached structure, it does not
// regenerate it.
func TestWarmStartSurvivesTwoSolvesPerStep(t *testing.T) {
	steps := 20
	if testing.Short() {
		steps = 6
	}
	for _, row := range []struct {
		nQ         int
		seed       uint64
		primingErr string // the priming solve's expected error; "" = it plans
	}{
		{nQ: 24, seed: 1},
		// ROADMAP item 8: at 100 queries no warm-start variant finds a
		// partition-consistent selection and the search finds none within
		// its budget, so the engine cannot start. These rows pin the
		// defect as it stands; the change that fixes item 8 flips them to
		// plan like the nQ 24 row.
		{nQ: 100, seed: 1, primingErr: "ILP hit limits with no incumbent (nodes=2000)"},
		{nQ: 100, seed: 42, primingErr: "ILP hit limits with no incumbent (nodes=2000)"},
	} {
		t.Run(fmt.Sprintf("nQ%d/seed%d", row.nQ, row.seed), func(t *testing.T) {
			if row.primingErr != "" {
				sched := controllerSchedule(t, row.nQ, row.seed, 0)
				_, err := newBuilder(controllerOptions(NewReopt()), sched[0].queries, sched[0].est).run()
				if err == nil || !strings.Contains(err.Error(), row.primingErr) {
					t.Fatalf("priming solve returned %v, want %q", err, row.primingErr)
				}
				return
			}
			warmStartSurvives(t, controllerSchedule(t, row.nQ, row.seed, steps))
		})
	}
}

// warmStartSurvives runs sched on one Reopt and applies the checks
// TestWarmStartSurvivesTwoSolvesPerStep describes.
func warmStartSurvives(t *testing.T, sched []controllerStep) {
	reopt := NewReopt()
	solves, feasible := 0, 0
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
				// Cold: no incumbent of this regime yet.
				if w.repaired {
					t.Errorf("priming solve restricted=%v: repaired an incumbent that does not exist", restricted)
				}
				continue
			}
			if !restricted {
				if misses, neighbours := after.TopMisses-before.TopMisses, sharingRelation(step.queries, step.changed); misses > uint64(neighbours) {
					t.Errorf("step %d: the free solve missed %d cached top-level groups, but only %d queries share a relation with %s",
						s, misses, neighbours, step.changed.Name)
				}
			}
			solves++
			if w.repaired {
				feasible++
			}
			if w.matched == 0 {
				t.Errorf("step %d restricted=%v: the incumbent matched none of %d groups", s, restricted, w.groups)
			}
		}
	}
	if 10*feasible < 9*solves {
		t.Errorf("incumbent repair feasible in %d of %d solves after the priming step, want at least 90%%", feasible, solves)
	}
	st := reopt.Stats()
	if st.RepairsFeasible != uint64(feasible) || st.RepairsFeasible+st.RepairsInfeasible+st.RepairsUnmatched != st.JointSolves {
		t.Errorf("repair outcomes do not add up: %+v (counted %d feasible)", st, feasible)
	}
	if st.SeededIncumbent == 0 {
		t.Errorf("the repaired incumbent never seeded a solve: %+v", st)
	}
	t.Logf("%d solves after priming: %d repairs feasible, groups matched %d/%d, seeded by incumbent %d / greedy %d+%d / local search %d, top hit/miss %d/%d",
		solves, feasible, st.GroupsMatched, st.GroupsSeen, st.SeededIncumbent, st.SeededGreedyMarginal, st.SeededGreedyAbsolute, st.SeededLocalSearch, st.TopHits, st.TopMisses)

	// Without cross-churn state every solve is cold, and still seeded.
	last := sched[len(sched)-1]
	b, plan := solveKeeping(t, controllerOptions(nil), last.queries, last.est)
	if b.warm.repaired || b.warm.seed < 0 || plan.Objective > b.warm.obj*(1+1e-12) {
		t.Errorf("Reopt == nil: repaired=%v, seed %d of objective %g, plan %g", b.warm.repaired, b.warm.seed, b.warm.obj, plan.Objective)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from this build")

// TestChurnEnginePlansGolden solves the engine-regime churn schedule —
// 24 queries over 40 relations drawn from seed 42, 20 steps of two joint
// solves each on one Reopt — and compares every solve with
// testdata/plans/churn-engine.golden: status, nodes, the objective's
// float64 bits and the warm-start variant that seeded the search
// ("none": every variant was infeasible), then the selected order of
// every (query, start) group and every store's partitioning attribute —
// in full at step 0, afterwards only what changed against the same
// regime's previous solve ("-": gone). Every solve is node-capped and
// serial, so any change to candidate generation, pricing, the warm start
// or the search that moves one of them shows here, at the step it moved.
// Regenerate with go test -run TestChurnEnginePlansGolden -update only for
// a change meant to move plans.
func TestChurnEnginePlansGolden(t *testing.T) {
	seedNames := [numSeeds]string{"incumbent", "greedy-marginal", "greedy-absolute", "local-search"}
	reopt := NewReopt()
	var got strings.Builder
	prev := map[bool]map[string]string{} // per regime: the last solve's planLines
	for s, step := range controllerSchedule(t, 24, 42, 20) {
		reopt.Advance()
		for _, restricted := range []bool{false, true} {
			opts := controllerOptions(reopt)
			regime := "free"
			if restricted {
				opts.MIREligible = func(key string) bool { return !step.banned[key] }
				regime = "restricted"
			}
			b, plan := solveKeeping(t, opts, step.queries, step.est)
			seed := "none"
			if b.warm.seed >= 0 {
				seed = seedNames[b.warm.seed]
			}
			fmt.Fprintf(&got, "step %2d %-10s %-7s nodes=%4d obj=%016x seed=%s\n",
				s, regime, plan.Stats.Status, plan.Stats.Nodes, math.Float64bits(plan.Objective), seed)
			lines := planLines(plan)
			for _, k := range slices.Sorted(maps.Keys(lines)) {
				if v, ok := prev[restricted][k]; !ok || v != lines[k] {
					fmt.Fprintf(&got, "  %s %s\n", k, lines[k])
				}
			}
			for _, k := range slices.Sorted(maps.Keys(prev[restricted])) {
				if _, ok := lines[k]; !ok {
					fmt.Fprintf(&got, "  %s -\n", k)
				}
			}
			prev[restricted] = lines
		}
	}

	path := filepath.Join("testdata", "plans", "churn-engine.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			solve := ""
			for j := min(i, len(wl)-1); j >= 0; j-- {
				if strings.HasPrefix(wl[j], "step ") {
					solve = wl[j]
					break
				}
			}
			moved := ""
			for _, l := range []string{w, g} {
				if f := strings.Fields(l); len(f) > 1 && f[0] == "order" {
					moved = fmt.Sprintf("\nthe order of query %s moved", strings.TrimSuffix(f[1], "/"))
					break
				}
			}
			t.Fatalf("%s line %d, in the solve of %q:\n got: %s\nwant: %s%s", path, i+1, solve, g, w, moved)
		}
	}
}

// planLines renders what a solve selected: per (query, start) group —
// "<query>/<fed MIR key> <start>", the fed key empty for a top-level
// group — the order's elements with their partition decorations, and
// per store its partitioning attribute.
func planLines(plan *Plan) map[string]string {
	out := map[string]string{}
	for _, d := range plan.Selected {
		group := d.Query.Name + "/" + d.ForMIR
		out["order "+group+" "+d.Start] = strings.TrimPrefix(d.Key(), group+"/")
	}
	for key, a := range plan.Partitions {
		out["part "+key] = a.String()
	}
	return out
}

// sharingRelation counts the queries that join at least one relation of q.
func sharingRelation(queries []*query.Query, q *query.Query) int {
	n := 0
	for _, o := range queries {
		if slices.ContainsFunc(o.Relations, func(rel string) bool { return slices.Contains(q.Relations, rel) }) {
			n++
		}
	}
	return n
}

// TestRepairPlacesCompatibly pins the repair's placement rule on its own:
// with one group's incumbent gone, the group is re-placed on a candidate
// whose partition decorations agree with what the kept groups committed,
// even when its cheapest candidate does not.
func TestRepairPlacesCompatibly(t *testing.T) {
	sched := controllerSchedule(t, 24, 1, 1)
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
