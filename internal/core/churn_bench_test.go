package core

import "testing"

// churnStepper primes one Reopt over the query-churn shape (24 random
// three-way joins over 40 relations, consistency rows on) and returns a
// churn step pair as the controller runs it: an AddQuery step and the
// RemoveQuery step that undoes it, each two joint solves (free, then with
// the newest query's composite MIRs banned) under a snapshot the previous
// step did not see.
func churnStepper(tb testing.TB) func() {
	sched := controllerSchedule(tb, 24, 1, 2)
	reopt := NewReopt()
	solve := func(step controllerStep) {
		reopt.Advance()
		for _, restricted := range []bool{false, true} {
			opts := controllerOptions(reopt)
			if restricted {
				opts.MIREligible = func(key string) bool { return !step.banned[key] }
			}
			if _, err := NewOptimizer(opts).Optimize(step.queries, step.est); err != nil {
				tb.Fatal(err)
			}
		}
	}
	// Prime the incumbents, then alternate the arrival (step 1) and the
	// expiry that restores the primed set under a fresh snapshot, while
	// the arrival's stores still warm up.
	solve(sched[0])
	removal := sched[0]
	removal.est, removal.banned = sched[2].est, sched[1].banned
	return func() {
		solve(sched[1])
		solve(removal)
	}
}

// BenchmarkChurnStep times the churn path's re-optimization: one op is a
// churnStepper pair.
func BenchmarkChurnStep(b *testing.B) {
	step := churnStepper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestChurnStepAllocs holds a churn step pair, run exactly as
// BenchmarkChurnStep runs it, to an allocation budget: objects counted, no
// clock. While every solve built its search state, its model rows and its
// prices from fresh memory a pair allocated 37 759 objects here (38 005
// per op in BenchmarkChurnStep); since they live in the Reopt's workspace
// it allocated 4 408, since structure keys hold only what a structure
// reads of the workload, written into the workspace, 2 856, since the MIR
// lists moved into the Reopt 2 386, and since the cost estimator's
// predicate list lives in the workspace 2 362 (2 365 under the race
// detector). The bound is 1.25× that.
func TestChurnStepAllocs(t *testing.T) {
	step := churnStepper(t)
	allocs := testing.AllocsPerRun(3, step)
	t.Logf("%.0f allocations per churn step pair", allocs)
	const limit = 2952
	if allocs > limit {
		t.Fatalf("%.0f allocations per churn step pair, want at most %d", allocs, limit)
	}
}
