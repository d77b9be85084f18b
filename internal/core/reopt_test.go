package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"clash/internal/ilp"
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

	// The Fig. 9c regime at the size of a churn benchmark: 50 queries
	// over 100 relations, 12 candidates per group and 200 000 nodes a
	// solve. Every count must repeat run to run.
	first := incrementalVsScratch(t, 50, 42, 5)
	t.Logf("Fig. 9c regime, per step nodes scratch/incremental and objectives scratch/incremental, then memo hits/misses: %v", first)
	if second := incrementalVsScratch(t, 50, 42, 5); !slices.Equal(first, second) {
		t.Errorf("two runs disagree:\n%v\n%v", first, second)
	}
}

// incrementalVsScratch primes a Reopt with nQ random three-way joins over
// 100 relations, then alternately admits a fresh query and retires the
// oldest for steps steps, optimizing after each from scratch and with
// the Reopt. It fails when an incremental plan costs more than the
// scratch plan of its step, or less when both solves were proven
// optimal (a node-capped solve may stop above the optimum), and returns
// per step the two arms' node counts and objectives, then the memo's
// hits and misses.
func incrementalVsScratch(t *testing.T, nQ int, seed uint64, steps int) []float64 {
	t.Helper()
	env := workload.NewEnv(100, 100)
	est := env.Estimates()
	pool := env.RandomQueries(nQ+steps, 3, seed)
	if len(pool) < nQ+steps {
		t.Fatalf("workload generation came up short (%d queries)", len(pool))
	}
	active, fresh := append([]*query.Query(nil), pool[:nQ]...), pool[nQ:]
	base := Options{NoPartitionConsistency: true, MaxCandidatesPerGroup: 12}
	base.Solver.MaxNodes = 200000
	reopt := NewReopt()
	inc := base
	inc.Reopt = reopt
	if _, err := NewOptimizer(inc).Optimize(active, est); err != nil {
		t.Fatal(err)
	}
	var counts []float64
	for step := 0; step < steps; step++ {
		if step%2 == 0 {
			active = append(active, fresh[step/2])
		} else {
			active = append([]*query.Query(nil), active[1:]...)
		}
		scratch, err := NewOptimizer(base).Optimize(active, est)
		if err != nil {
			t.Fatalf("step %d: scratch: %v", step, err)
		}
		reopt.Advance()
		incr, err := NewOptimizer(inc).Optimize(active, est)
		if err != nil {
			t.Fatalf("step %d: incremental: %v", step, err)
		}
		if incr.Objective > scratch.Objective+1e-6 {
			t.Fatalf("step %d: incremental cost %g > scratch %g", step, incr.Objective, scratch.Objective)
		}
		if scratch.Stats.Status == ilp.Optimal && incr.Stats.Status == ilp.Optimal && incr.Objective < scratch.Objective-1e-6 {
			t.Fatalf("step %d: incremental cost %g below scratch optimum %g — one of them is not optimal", step, incr.Objective, scratch.Objective)
		}
		counts = append(counts, float64(scratch.Stats.Nodes), float64(incr.Stats.Nodes), scratch.Objective, incr.Objective)
	}
	s := reopt.Stats()
	if s.MemoHits == 0 {
		t.Error("memo never hit across the churn steps")
	}
	return append(counts, float64(s.MemoHits), float64(s.MemoMisses))
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

// q1Pred builds the equality predicate l.la = r.ra.
func q1Pred(l, la, r, ra string) query.Predicate {
	return query.Predicate{Left: query.Attr{Rel: l, Name: la}, Right: query.Attr{Rel: r, Name: ra}}
}

// q1Churn installs arrivalChurn's q1 over E00, E01, E02, then admits a
// second query q over rels with preds: the step whose probes show what
// q's arrival does to q1's cached structure. It fails unless q leaves
// the partition candidates of every subset of q1's relations as they
// were.
func q1Churn(t *testing.T, rels []string, preds []query.Predicate) churnSchedule {
	sched := arrivalChurn(t)
	q1 := sched.steps[0][0]
	q, err := query.NewQuery("q", rels, preds)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 1; mask < 7; mask++ {
		var sub []string
		for i, rel := range q1.Relations {
			if mask&(1<<i) != 0 {
				sub = append(sub, rel)
			}
		}
		m := mir.New(sub, nil)
		if a, b := mir.PartitionCandidates(m, []*query.Query{q1}), mir.PartitionCandidates(m, []*query.Query{q1, q}); !slices.Equal(a, b) {
			t.Fatalf("q gives %v a partition candidate: %v, then %v", sub, a, b)
		}
	}
	sched.steps = [][]*query.Query{{q1}, {q1, q}}
	return sched
}

// q1Probes runs a q1Churn schedule's steps in the free regime on one
// Reopt and returns the top-level structure probes of the last step: q's
// miss and q1's hit or miss.
func q1Probes(t *testing.T, sched churnSchedule) (hits, misses uint64) {
	reopt := NewReopt()
	opts := Options{MaxCandidatesPerGroup: sched.cap, MaterializationCost: true, Reopt: reopt}
	var before ReoptStats
	for step, active := range sched.steps {
		reopt.Advance()
		before = reopt.Stats()
		candidateBuilder(t, opts, active, sealedEstimates(sched.env, active, uint64(step)+1))
	}
	after := reopt.Stats()
	return after.TopHits - before.TopHits, after.TopMisses - before.TopMisses
}

// cachedVersusFresh runs a churn schedule with a freshly sealed estimates
// snapshot at every step, two eligibility regimes per step, and compares the candidates of a builder on one
// Reopt — structure from its cache, re-priced — with a build without
// cross-churn state. It returns the Reopt's counters and the first
// difference.
func cachedVersusFresh(t *testing.T, sched churnSchedule, blindNeighbourhood bool) (ReoptStats, error) {
	reopt := NewReopt()
	reopt.blindNeighbourhood = blindNeighbourhood
	for step, active := range sched.steps {
		est := sealedEstimates(sched.env, active, uint64(step)+1)
		reopt.Advance()
		for _, elig := range []func(string) bool{nil, func(key string) bool { return len(key)%2 == 0 }} {
			opts := Options{MaxCandidatesPerGroup: sched.cap, MaterializationCost: true, MIREligible: elig}
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
// the estimates change at every step and queries arrive and leave. The
// vacuity arm leaves what a structure reads of the rest of the workload
// out of the structure key: the query that gives a shared relation a new
// partition candidate must then make a cached group stale on arrival.
// Two arms pin what the key holds of the workload. A query that shares
// E01 with q1 but changes no partition candidate of q1's relation
// subsets and adds no predicate among q1's relations leaves q1's key as
// it was: q1 hits on its arrival (it missed while the key held every
// query sharing a relation). A query that adds E00.a1 = E01.a2, and no
// partition candidate, lets a probe from E00 compute the partitioning
// value of E01 partitioned by a2: q1 misses, and a key blind to the
// workload serves the stale structure.
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

	sharing := q1Churn(t, []string{"E01", "E05"}, []query.Predicate{q1Pred("E01", "a1", "E05", "a1")})
	if _, err := cachedVersusFresh(t, sharing, false); err != nil {
		t.Fatal(err)
	}
	if hits, misses := q1Probes(t, sharing); hits != 1 || misses != 1 {
		t.Fatalf("a query sharing only E01 with q1: %d top-level hits and %d misses on its arrival, want q1's hit and its own miss", hits, misses)
	}

	knowing := q1Churn(t, []string{"E00", "E01"}, []query.Predicate{q1Pred("E00", "a1", "E01", "a2")})
	if _, err := cachedVersusFresh(t, knowing, false); err != nil {
		t.Fatal(err)
	}
	if hits, misses := q1Probes(t, knowing); hits != 0 || misses != 2 {
		t.Fatalf("a query adding E00.a1 = E01.a2: %d top-level hits and %d misses on its arrival, want none and two", hits, misses)
	}
	if _, err := cachedVersusFresh(t, knowing, true); err == nil || !strings.HasPrefix(err.Error(), "step 1 ") {
		t.Fatalf("structure keys without the workload's predicates: %v; want a stale group when E00.a1 = E01.a2 arrives at step 1", err)
	} else {
		t.Logf("without the workload's predicates: %v", err)
	}
}
