package core

import (
	"maps"
	"testing"

	"clash/internal/query"
)

// TestPlanSameAsMatchesString holds Plan.SameAs to the comparison of the
// plans' renderings on every pair among the decisions of a churn
// schedule — each step solved twice, free and restricted, and once more
// on a fresh Reopt — and edited copies of them: the objective moved below
// and above four significant digits, a partition and an element's
// decoration changed, an order dropped.
func TestPlanSameAsMatchesString(t *testing.T) {
	sched := controllerSchedule(t, 12, 1, 4)
	reopt := NewReopt()
	var plans []*Plan
	for _, step := range sched {
		reopt.Advance()
		for _, restricted := range []bool{false, true} {
			opts := controllerOptions(reopt)
			if restricted {
				opts.MIREligible = func(key string) bool { return !step.banned[key] }
			}
			p, err := NewOptimizer(opts).Optimize(step.queries, step.est)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
		p, err := NewOptimizer(controllerOptions(nil)).Optimize(step.queries, step.est)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	edited := func(p *Plan, edit func(*Plan)) *Plan {
		q := *p
		q.Selected = append([]*DecoratedOrder(nil), p.Selected...)
		q.Partitions = maps.Clone(p.Partitions)
		edit(&q)
		return &q
	}
	base := plans[0]
	plans = append(plans,
		edited(base, func(q *Plan) { q.Objective *= 1 + 1e-9 }),
		edited(base, func(q *Plan) { q.Objective *= 1.01 }),
		edited(base, func(q *Plan) { q.Selected = q.Selected[1:] }),
		edited(base, func(q *Plan) {
			for k, a := range q.Partitions {
				q.Partitions[k] = query.Attr{Rel: a.Rel, Name: a.Name + "x"}
				break
			}
		}),
		edited(base, func(q *Plan) {
			for i, d := range q.Selected {
				if len(d.Elems) > 1 && d.Elems[1].Partition != (query.Attr{}) {
					e := *d
					e.Elems = append([]Element(nil), d.Elems...)
					e.Elems[1].Partition.Name += "x"
					q.Selected[i] = &e
					return
				}
			}
			t.Fatal("no decorated element to edit")
		}),
	)
	same, differ := 0, 0
	for i, p := range plans {
		for j, q := range plans {
			want := p.String() == q.String()
			if got := p.SameAs(q); got != want {
				t.Fatalf("plans %d and %d: SameAs %v, renderings equal %v\n%s\n%s", i, j, got, want, p, q)
			}
			if i != j {
				if want {
					same++
				} else {
					differ++
				}
			}
		}
	}
	t.Logf("%d pairs the same, %d different", same, differ)
	if same == 0 || differ == 0 {
		t.Fatal("the pairs must give both verdicts")
	}
}
