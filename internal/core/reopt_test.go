package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"clash/internal/cost"
	"clash/internal/mir"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
	"clash/internal/tuple"
	"clash/internal/workload"
)

// churnStep mutates the active query set like the adaptive controller
// sees it: add from the pool, remove the oldest, or replace one (same
// name, different shape).
func churnStep(step int, active, pool []*query.Query) ([]*query.Query, []*query.Query) {
	switch step % 3 {
	case 0: // add
		if len(pool) > 0 {
			active = append(append([]*query.Query(nil), active...), pool[0])
			pool = pool[1:]
		}
	case 1: // remove oldest
		if len(active) > 1 {
			active = append([]*query.Query(nil), active[1:]...)
		}
	default: // replace: new shape behind an existing name
		if len(pool) > 0 && len(active) > 0 {
			repl, err := query.NewQuery(active[0].Name, pool[0].Relations, pool[0].Preds)
			if err == nil {
				active = append([]*query.Query{repl}, active[1:]...)
				pool = pool[1:]
			}
		}
	}
	return active, pool
}

// TestIncrementalMatchesScratchUnderChurn is the acceptance sweep of
// the incremental re-optimizer: over seeded add/remove/replace churn
// schedules, the plan found with cross-churn state (incumbent warm
// start, memo, candidate structures) costs no more than re-optimizing from
// scratch at every step. Both solves run to optimality here, so the
// costs must in fact be equal.
func TestIncrementalMatchesScratchUnderChurn(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		env := workload.NewEnv(10, 100)
		pool := env.RandomQueries(14, 3, uint64(seed)*31+1)
		if len(pool) < 8 {
			continue
		}
		est := env.Estimates()

		base := Options{}
		if seed%4 != 3 {
			// The decomposing Fig. 9 regime, where component caching
			// carries the most weight.
			base.NoPartitionConsistency = true
		} else {
			// Partition-aware regime, capped to keep models tractable.
			base.MaxCandidatesPerGroup = 6
		}
		reopt := NewReopt()
		inc := base
		inc.Reopt = reopt

		active := append([]*query.Query(nil), pool[:4]...)
		pool = pool[4:]
		for step := 0; step < 6; step++ {
			active, pool = churnStep(step, active, pool)
			reopt.Advance()

			scratch, err := NewOptimizer(base).Optimize(active, est)
			if err != nil {
				t.Fatalf("seed %d step %d: scratch: %v", seed, step, err)
			}
			incr, err := NewOptimizer(inc).Optimize(active, est)
			if err != nil {
				t.Fatalf("seed %d step %d: incremental: %v", seed, step, err)
			}
			if incr.Objective > scratch.Objective+1e-6 {
				t.Fatalf("seed %d step %d: incremental cost %g > scratch %g",
					seed, step, incr.Objective, scratch.Objective)
			}
			if incr.Objective < scratch.Objective-1e-6 {
				t.Fatalf("seed %d step %d: incremental cost %g below scratch optimum %g — one of them is not optimal",
					seed, step, incr.Objective, scratch.Objective)
			}
		}
		if s := reopt.Stats(); s.MemoHits == 0 {
			t.Errorf("seed %d: memo never hit across the churn sweep", seed)
		}
	}
}

// TestReoptNewEstimatesReprice pins what a new estimates snapshot does
// to the candidate caches: nothing about the queries changed, so every
// group's structure still hits, and the hits are re-priced — the plan
// tracks the new rates and costs exactly what a build without cross-churn
// state costs.
func TestReoptNewEstimatesReprice(t *testing.T) {
	env := workload.NewEnv(8, 100)
	qs := env.RandomQueries(4, 3, 9)
	if len(qs) < 4 {
		t.Skip("workload generation came up short")
	}
	est := env.Estimates()
	reopt := NewReopt()
	opts := Options{Reopt: reopt}

	p1, err := NewOptimizer(opts).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	// Same snapshot: cached groups serve, same plan cost.
	reopt.Advance()
	p2, err := NewOptimizer(opts).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Objective != p2.Objective {
		t.Fatalf("same estimates, different cost: %g vs %g", p1.Objective, p2.Objective)
	}

	// A changed snapshot hits the same structure and flows into the cost.
	est2 := est.Clone()
	for _, r := range []string{"E00", "E01", "E02", "E03"} {
		est2.SetRate(r, 500)
	}
	reopt.Advance()
	before := reopt.Stats()
	p3, err := NewOptimizer(opts).Optimize(qs, est2)
	if err != nil {
		t.Fatal(err)
	}
	after := reopt.Stats()
	if after.TopMisses != before.TopMisses || after.FeedMisses != before.FeedMisses ||
		after.TopHits-before.TopHits != uint64(len(qs)) {
		t.Fatalf("a new snapshot missed the structure cache: %+v -> %+v", before, after)
	}
	fresh, err := NewOptimizer(Options{}).Optimize(qs, est2)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Objective != fresh.Objective {
		t.Fatalf("stale prices: incremental cost %g, fresh cost %g after rate change",
			p3.Objective, fresh.Objective)
	}
	if p3.Objective == p1.Objective {
		t.Fatalf("the rate change did not move the plan cost (%g): the test shows nothing", p3.Objective)
	}
}

// TestMeasuredCoefficientsChangeCostsNotValidity checks the calibrated
// cost model end to end: non-default coefficients scale step costs and
// may change plan choice, but the produced plan stays a valid solution
// of the same ILP family (all selections feasible), and default
// coefficients reproduce the analytic objective exactly.
func TestMeasuredCoefficientsChangeCostsNotValidity(t *testing.T) {
	env := workload.NewEnv(8, 100)
	qs := env.RandomQueries(3, 3, 5)
	est := env.Estimates()

	analytic, err := NewOptimizer(Options{MaterializationCost: true}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	defaults, err := NewOptimizer(Options{
		MaterializationCost: true,
		CostCoefficients:    &cost.DefaultCoefficients,
	}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	if analytic.Objective != defaults.Objective {
		t.Fatalf("default coefficients changed the analytic objective: %g vs %g",
			defaults.Objective, analytic.Objective)
	}

	skewed := cost.DefaultCoefficients
	skewed.Insert, skewed.Prune = 6, 4 // materialization 5x pricier
	calibrated, err := NewOptimizer(Options{
		MaterializationCost: true,
		CostCoefficients:    &skewed,
	}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	if calibrated.Objective < analytic.Objective {
		t.Fatalf("pricier materialization lowered the objective: %g < %g",
			calibrated.Objective, analytic.Objective)
	}
	if len(calibrated.Selected) == 0 {
		t.Fatal("calibrated plan selected nothing")
	}
}

// sealedEstimates seals one epoch of seeded observations over the
// environment's relations, as the controller does at every epoch: rates
// and hot-key shares vary per relation and per seed, so prices move
// through rates, selectivities and the skew factor alike.
func sealedEstimates(env *workload.Env, queries []*query.Query, seed uint64) *stats.Estimates {
	r := rng.New(seed)
	c := stats.NewCollector(64, 64, seed)
	for _, rel := range env.Catalog().Names() {
		s := tuple.NewSchema(rel+".a1", rel+".a2", rel+".a3")
		hot := r.Intn(70) // percent of the tuples on key 0
		value := func() tuple.Value {
			if r.Intn(100) < hot {
				return tuple.IntValue(0)
			}
			return tuple.IntValue(int64(1 + r.Intn(40)))
		}
		for i, n := 0, 40+r.Intn(160); i < n; i++ {
			c.Observe(rel, tuple.New(s, tuple.Time(i), value(), value(), value()))
		}
	}
	var preds []query.Predicate
	for _, q := range queries {
		preds = append(preds, q.Preds...)
	}
	return c.Seal(time.Second, preds)
}

// candidateBuilder runs a builder up to its priced, capped candidates.
func candidateBuilder(t *testing.T, opts Options, qs []*query.Query, est *stats.Estimates) *builder {
	t.Helper()
	b := newBuilder(opts, qs, est)
	b.enumerateMIRs()
	if err := b.generateCandidates(); err != nil {
		t.Fatal(err)
	}
	return b
}

// sameGroups compares two builders' candidate groups bit for bit: per
// (query or fed MIR, start) the capped cut in order, each order's key and
// cost, each step's keys, target and cost.
func sameGroups(got, want *builder) error {
	cmp := func(what string, g, w map[string][]*DecoratedOrder) error {
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d starts, want %d", what, len(g), len(w))
		}
		for start, wd := range w {
			gd := g[start]
			if len(gd) != len(wd) {
				return fmt.Errorf("%s from %s: %d candidates, want %d", what, start, len(gd), len(wd))
			}
			for i := range wd {
				a, b := gd[i], wd[i]
				if a.Key() != b.Key() || math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || len(a.Steps) != len(b.Steps) {
					return fmt.Errorf("%s from %s #%d: %s cost %v (%d steps), want %s cost %v (%d steps)",
						what, start, i, a.Key(), a.Cost, len(a.Steps), b.Key(), b.Cost, len(b.Steps))
				}
				for k := range b.Steps {
					sa, sb := a.Steps[k], b.Steps[k]
					if sa.Key != sb.Key || sa.PrefixKey != sb.PrefixKey || sa.Target.Partition != sb.Target.Partition ||
						(sa.Target.MIR == nil) != (sb.Target.MIR == nil) || (sb.Target.MIR != nil && sa.Target.MIR.Key() != sb.Target.MIR.Key()) ||
						math.Float64bits(sa.Cost) != math.Float64bits(sb.Cost) {
						return fmt.Errorf("%s from %s #%d step %d: %+v, want %+v", what, start, i, k, sa, sb)
					}
				}
			}
		}
		return nil
	}
	if len(got.topGroups) != len(want.topGroups) || len(got.feedGroups) != len(want.feedGroups) {
		return fmt.Errorf("%d top-level and %d feeding groups, want %d and %d",
			len(got.topGroups), len(got.feedGroups), len(want.topGroups), len(want.feedGroups))
	}
	for name, w := range want.topGroups {
		if err := cmp("query "+name, got.topGroups[name], w); err != nil {
			return err
		}
	}
	for key, w := range want.feedGroups {
		if err := cmp("feed "+key, got.feedGroups[key], w); err != nil {
			return err
		}
	}
	return nil
}

// churnSchedule is the installed query set at each step of a churn run.
type churnSchedule struct {
	env   *workload.Env
	steps [][]*query.Query
	cap   int // MaxCandidatesPerGroup
}

// randomChurn alternately admits a random three-way join and retires
// the oldest, over ten relations so that most steps touch a relation
// the others join too.
func randomChurn(t *testing.T) churnSchedule {
	env := workload.NewEnv(10, 100)
	pool := env.RandomQueries(13, 3, 7)
	if len(pool) < 13 {
		t.Fatalf("workload generation came up short (%d queries)", len(pool))
	}
	active, fresh := append([]*query.Query(nil), pool[:5]...), pool[5:]
	sched := churnSchedule{env: env, cap: 5}
	for step := 0; step < 16; step++ {
		switch {
		case step == 0:
		case step%2 == 1:
			active, fresh = append(active, fresh[0]), fresh[1:]
		default:
			active = append([]*query.Query(nil), active[1:]...)
		}
		sched.steps = append(sched.steps, append([]*query.Query(nil), active...))
	}
	return sched
}

// arrivalChurn installs q1 over E00, E01, E02, then admits q2, whose
// predicate on E01.a3 gives the E01 store a partition candidate q1's own
// predicates do not: q1's candidate structure changes although q1 did not.
func arrivalChurn(t *testing.T) churnSchedule {
	pred := func(l, la, r, ra string) query.Predicate {
		return query.Predicate{Left: query.Attr{Rel: l, Name: la}, Right: query.Attr{Rel: r, Name: ra}}
	}
	q1, err := query.NewQuery("q1", []string{"E00", "E01", "E02"},
		[]query.Predicate{pred("E00", "a1", "E01", "a1"), pred("E01", "a2", "E02", "a1")})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := query.NewQuery("q2", []string{"E01", "E03", "E04"},
		[]query.Predicate{pred("E01", "a3", "E03", "a1"), pred("E03", "a2", "E04", "a1")})
	if err != nil {
		t.Fatal(err)
	}
	e01 := mir.New([]string{"E01"}, nil)
	if a, b := mir.PartitionCandidates(e01, []*query.Query{q1}), mir.PartitionCandidates(e01, []*query.Query{q1, q2}); len(b) <= len(a) {
		t.Fatalf("q2 gives E01 no new partition candidate: %v, then %v", a, b)
	}
	return churnSchedule{env: workload.NewEnv(10, 100), steps: [][]*query.Query{{q1}, {q1, q2}, {q1}}}
}

// cachedVersusFresh runs a churn schedule with a freshly sealed estimates
// snapshot and new cost coefficients at every step, two eligibility
// regimes per step, and compares the candidates of a builder on one
// Reopt — structure from its cache, re-priced — with a build without
// cross-churn state. It returns the Reopt's counters and the first
// difference.
func cachedVersusFresh(t *testing.T, sched churnSchedule, blindNeighbourhood bool) (ReoptStats, error) {
	reopt := NewReopt()
	reopt.blindNeighbourhood = blindNeighbourhood
	r := rng.New(3)
	for step, active := range sched.steps {
		est := sealedEstimates(sched.env, active, uint64(step)+1)
		coef := cost.Coefficients{Probe: 1, Insert: 0.5 + 4*r.Float64(), Prune: 0.5 + 2*r.Float64()}
		reopt.Advance()
		for _, elig := range []func(string) bool{nil, func(key string) bool { return len(key)%2 == 0 }} {
			opts := Options{MaxCandidatesPerGroup: sched.cap, MaterializationCost: true, CostCoefficients: &coef, MIREligible: elig}
			want := candidateBuilder(t, opts, active, est)
			opts.Reopt = reopt
			if err := sameGroups(candidateBuilder(t, opts, active, est), want); err != nil {
				return reopt.Stats(), fmt.Errorf("step %d (restricted %v): %w", step, elig != nil, err)
			}
		}
	}
	return reopt.Stats(), nil
}

// TestCachedStructureRepricesLikeAFreshBuild is the structure cache's
// differential test: every cached-and-re-priced group must equal the
// group a build without cross-churn state produces, bit for bit, while
// the estimates and coefficients change at every step and queries arrive
// and leave. The vacuity arm leaves the relation neighbourhood out of the
// structure key: the query that gives a shared relation a new partition
// candidate must then make a cached group stale on arrival.
func TestCachedStructureRepricesLikeAFreshBuild(t *testing.T) {
	for _, sched := range []churnSchedule{randomChurn(t), arrivalChurn(t)} {
		st, err := cachedVersusFresh(t, sched, false)
		if err != nil {
			t.Fatal(err)
		}
		if st.TopHits == 0 {
			t.Fatalf("the schedule never hit the structure cache: %+v", st)
		}
		t.Logf("%d steps: top hit/miss %d/%d, feed hit/miss %d/%d", len(sched.steps), st.TopHits, st.TopMisses, st.FeedHits, st.FeedMisses)
	}

	_, err := cachedVersusFresh(t, arrivalChurn(t), true)
	if err == nil || !strings.HasPrefix(err.Error(), "step 1 ") {
		t.Fatalf("structure keys without the neighbourhood: %v; want a stale group when q2 arrives at step 1", err)
	}
	t.Logf("without the neighbourhood: %v", err)
}
