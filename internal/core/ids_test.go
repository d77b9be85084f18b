package core

import (
	"math"
	"testing"
)

// TestSymbolTableRestartKeepsPlans runs the controller's churn schedule
// on two Reopts, one of which replaces its symbol table at every other
// step (its cap forced down), and requires the same plans, to the bit.
// A new table drops the cached structures that carry the old one's ids,
// and the incumbent, kept by order key, resolves in the new table.
func TestSymbolTableRestartKeepsPlans(t *testing.T) {
	sched := controllerSchedule(t, 24, 1, 6)
	keep, restart := NewReopt(), NewReopt()
	restarts := 0
	for s, step := range sched {
		keep.Advance()
		restart.symsCap = 1
		before := restart.syms
		restart.Advance()
		if restart.syms != before {
			restarts++
			if len(restart.structs) != 0 {
				t.Fatalf("step %d: %d structures survived a new symbol table", s, len(restart.structs))
			}
		}
		for _, restricted := range []bool{false, true} {
			var plans [2]*Plan
			for i, r := range []*Reopt{keep, restart} {
				opts := controllerOptions(r)
				if restricted {
					opts.MIREligible = func(key string) bool { return !step.banned[key] }
				}
				p, err := NewOptimizer(opts).Optimize(step.queries, step.est)
				if err != nil {
					t.Fatal(err)
				}
				plans[i] = p
			}
			a, b := plans[0], plans[1]
			if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || a.String() != b.String() || a.Stats.Nodes != b.Stats.Nodes {
				t.Fatalf("step %d restricted=%v: plans differ after a new symbol table:\n%s\n%s", s, restricted, a, b)
			}
		}
	}
	if restarts < len(sched)/2-1 {
		t.Fatalf("%d new symbol tables over %d steps", restarts, len(sched))
	}
	if st := restart.Stats(); st.RepairsFeasible == 0 {
		t.Fatalf("no incumbent was repaired across new tables: %+v", st)
	}
}
