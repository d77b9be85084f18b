package core

import "testing"

// BenchmarkChurnStep times the churn path's re-optimization as the
// controller runs it, on one Reopt over the query-churn shape (24 random
// three-way joins over 40 relations, consistency rows on): one op is an
// AddQuery step and the RemoveQuery step that undoes it, each two joint
// solves (free, then with the newest query's composite MIRs banned) under
// a snapshot the previous step did not see.
func BenchmarkChurnStep(b *testing.B) {
	sched := controllerSchedule(b, 2)
	reopt := NewReopt()
	solve := func(step controllerStep) {
		reopt.Advance()
		for _, restricted := range []bool{false, true} {
			opts := controllerOptions(reopt)
			if restricted {
				opts.MIREligible = func(key string) bool { return !step.banned[key] }
			}
			if _, err := NewOptimizer(opts).Optimize(step.queries, step.est); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Prime the incumbents, then alternate the arrival (step 1) and the
	// expiry that restores the primed set under a fresh snapshot, while
	// the arrival's stores still warm up.
	solve(sched[0])
	removal := sched[0]
	removal.est, removal.banned = sched[2].est, sched[1].banned
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(sched[1])
		solve(removal)
	}
}
