package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clash/internal/query"
	"clash/internal/stats"
)

// chiMismatches compiles plan shared and lists, for every selected step
// into a partitioned store, where the priced χ verdict (stepShape.knows:
// the probing tuple knows the partitioning value, χ = 1) disagrees with
// the compiled routing of the step's (store, edge) — keyed when its rule
// draft routes by an attribute, broadcast when it routes by none.
func chiMismatches(t *testing.T, plan *Plan, par int) (mismatches []string, checked int) {
	t.Helper()
	c := newCompiler(CompileOptions{Shared: true, Parallelism: par})
	if err := c.compile([]*Plan{plan}); err != nil {
		t.Fatal(err)
	}
	for _, d := range plan.Selected {
		op := c.orders[orderKey{query: d.Query, order: d.Key()}]
		if op == nil {
			t.Fatalf("%s %s: the compile walked no path for the order", d.Query.Name, d.Key())
		}
		for i, node := range op.nodes {
			sh := d.shapes[i]
			if sh.target.Partition == (query.Attr{}) {
				continue
			}
			route := c.rules[ruleKey{store: node.store, edge: node.inEdge}].route
			checked++
			if sh.knows != (route != "") {
				mismatches = append(mismatches, fmt.Sprintf("%s %s: priced knows=%v, compiled route %q",
					d.Query.Name, d.Steps[i].Key, sh.knows, route))
			}
		}
	}
	slices.Sort(mismatches)
	return slices.Compact(mismatches), checked
}

// TestPricedChiMatchesCompiledRouting checks the optimizer's χ against
// the routing the compiler derives for the same step. Knows reads the
// predicates of the whole query set; routeFor reads the predicates of
// each rule consuming the edge and must be sound for all of them. A step
// priced keyed that runs broadcast costs its parallelism in messages the
// plan's objective never saw.
//
// Each row pins the mismatches it has today. The churn golden's priming
// solve has none; the hand-built pair has four, a defect pinned as it
// stands (ROADMAP items 5 and 7): the change that prices χ by the
// consuming rules' predicates flips its rows to none.
func TestPricedChiMatchesCompiledRouting(t *testing.T) {
	t.Run("churn priming solve", func(t *testing.T) {
		step := controllerSchedule(t, 24, 42, 20)[0]
		reopt := NewReopt()
		reopt.Advance()
		opts := controllerOptions(reopt)
		_, plan := solveKeeping(t, opts, step.queries, step.est)
		got, checked := chiMismatches(t, plan, opts.parallelism())
		if checked == 0 {
			t.Fatal("no selected step probes a partitioned store — test vacuous")
		}
		t.Logf("%d steps into partitioned stores", checked)
		if len(got) > 0 {
			t.Errorf("priced χ disagrees with the compiled routing:\n%s", strings.Join(got, "\n"))
		}
	})

	t.Run("other query's equality", func(t *testing.T) {
		// q1 equates R.a with T.a, q2 R.b with T.b: whichever attribute T
		// is partitioned by, one query's R→T step reaches it only through
		// the other query's predicate.
		qs := []*query.Query{
			query.MustParse("q1: R(a) T(a)"),
			query.MustParse("q2: R(b) T(b)"),
		}
		est := stats.NewEstimates(0.01)
		for _, rel := range []string{"R", "T"} {
			est.SetRate(rel, 100)
		}
		opts := Options{StoreParallelism: 4}
		_, plan := solveKeeping(t, opts, qs, est)
		got, checked := chiMismatches(t, plan, opts.parallelism())
		if checked == 0 {
			t.Fatal("no selected step probes a partitioned store — test vacuous")
		}
		// T is partitioned by T.a and R by R.a. q2's steps know the value
		// only through q1's predicate, and q1's share their edge with
		// q2's, whose rule no attribute routes soundly: all four steps run
		// broadcast.
		pinned := []string{
			`q1 R:R|->T|[T.a]: priced knows=true, compiled route ""`,
			`q1 T:T|->R|[R.a]: priced knows=true, compiled route ""`,
			`q2 R:R|->T|[T.a]: priced knows=true, compiled route ""`,
			`q2 T:T|->R|[R.a]: priced knows=true, compiled route ""`,
		}
		if !slices.Equal(got, pinned) {
			t.Errorf("mismatches moved:\n%s\npinned:\n%s", strings.Join(got, "\n"), strings.Join(pinned, "\n"))
		}
	})
}
