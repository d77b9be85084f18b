package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"clash/internal/query"
	"clash/internal/topology"
)

// warmingOf is the warming plan the adaptive controller installs beside
// a restricted decision (runtime/adaptive.go, warmingPlan): the free
// plan's feeding orders of banned MIRs that probe no banned MIR
// themselves; nil when there are none.
func warmingOf(free *Plan, banned map[string]bool) *Plan {
	out := &Plan{Partitions: map[string]query.Attr{}}
	for _, d := range free.Selected {
		if d.ForMIR == "" || !banned[d.ForMIR] {
			continue
		}
		if slices.ContainsFunc(d.Elems[1:], func(e Element) bool { return banned[e.MIR.Key()] }) {
			continue
		}
		out.Selected = append(out.Selected, d)
	}
	for k, v := range free.Partitions {
		out.Partitions[k] = v
	}
	if len(out.Selected) == 0 {
		return nil
	}
	return out
}

// topoDiff names the first difference between two topologies, "" when
// they are equal field for field, slice order included.
func topoDiff(got, want *topology.Config) string {
	if reflect.DeepEqual(got, want) {
		return ""
	}
	if got.Epoch != want.Epoch {
		return fmt.Sprintf("epoch %d, want %d", got.Epoch, want.Epoch)
	}
	for _, id := range sortedIDs(got.Stores, want.Stores) {
		if !reflect.DeepEqual(got.Stores[id], want.Stores[id]) {
			return fmt.Sprintf("store %s: %+v, want %+v", id, got.Stores[id], want.Stores[id])
		}
		for _, edge := range sortedIDs(got.Rules[id], want.Rules[id]) {
			if g, w := got.Rules[id][edge], want.Rules[id][edge]; !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("rules of %s on %s: %+v, want %+v", id, edge, g, w)
			}
		}
	}
	for _, rel := range sortedIDs(got.Spouts, want.Spouts) {
		if g, w := got.Spouts[rel], want.Spouts[rel]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("spout %s: %+v, want %+v", rel, g, w)
		}
	}
	return "the maps differ in a way no entry shows"
}

func sortedIDs[K ~string, V any](a, b map[K]V) []K {
	var out []K
	for k := range a {
		out = append(out, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sharedLists counts the rule lists of cur that are prev's lists.
func sharedLists(prev, cur *topology.Config) int {
	n := 0
	for id, byEdge := range cur.Rules {
		for edge, rules := range byEdge {
			if sameSlice(rules, prev.Rules[id][edge]) {
				n++
			}
		}
	}
	return n
}

// compileDeltaSchedule compiles, on one Compiler, every decision of the
// engine-regime churn schedule as the adaptive controller compiles it —
// per step the free decision, then the restricted one with the warming
// plan of the stores it bans — and compares each with a fresh Compile
// of the same plans, and the topology before with its fresh compile
// again. It returns the first difference, and how many rule lists the
// compiles took from the one before.
func compileDeltaSchedule(t *testing.T, keepDropped bool) (shared int, err error) {
	reopt := NewReopt()
	var x Compiler
	var prev, prevWant *topology.Config
	epoch := int64(0)
	for s, step := range controllerSchedule(t, 24, 42, 20) {
		reopt.Advance()
		opts := controllerOptions(reopt)
		free, err := NewOptimizer(opts).Optimize(step.queries, step.est)
		if err != nil {
			t.Fatal(err)
		}
		opts.MIREligible = func(key string) bool { return !step.banned[key] }
		restricted, err := NewOptimizer(opts).Optimize(step.queries, step.est)
		if err != nil {
			t.Fatal(err)
		}
		decisions := [][]*Plan{{free}, {restricted}}
		if w := warmingOf(free, step.banned); w != nil {
			decisions[1] = append(decisions[1], w)
		}
		for i, plans := range decisions {
			epoch++
			copts := CompileOptions{Epoch: epoch, Shared: true, Parallelism: 4}
			if x.c != nil {
				x.c.keepDropped = keepDropped
			}
			got, err := x.Compile(plans, copts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Compile(plans, copts)
			if err != nil {
				t.Fatal(err)
			}
			if d := topoDiff(got, want); d != "" {
				return shared, fmt.Errorf("step %d decision %d (%d plans): %s", s, i, len(plans), d)
			}
			if prev != nil {
				// The last topology shares parts with this one and must
				// not have changed.
				if d := topoDiff(prev, prevWant); d != "" {
					return shared, fmt.Errorf("step %d decision %d changed the topology before: %s", s, i, d)
				}
				shared += sharedLists(prev, got)
			}
			prev, prevWant = got, want
		}
	}
	return shared, nil
}

// TestCompileByDifferenceMatchesFresh is the differential test of the
// compile by difference: at every step of the engine-regime churn
// schedule (24 queries over 40 relations, seed 42, 20 steps), the
// topology a Compiler builds from its last compile equals a fresh
// Compile's of the same plans — every store, rule,
// emission, edge id and routing attribute, in order — while it takes
// most rule lists from the last topology. The vacuity arm keeps the
// rule lists of orders no longer selected, which a fresh compile drops:
// the comparison must catch it.
func TestCompileByDifferenceMatchesFresh(t *testing.T) {
	shared, err := compileDeltaSchedule(t, false)
	if err != nil {
		t.Fatal(err)
	}
	if shared == 0 {
		t.Fatal("no compile took a rule list from the one before: the test shows nothing")
	}
	t.Logf("%d rule lists taken from the compile before", shared)

	if _, err := compileDeltaSchedule(t, true); err == nil {
		t.Fatal("a compile that keeps dropped orders' rules matched the fresh compiles")
	} else {
		t.Logf("keeping dropped orders' rules: %v", err)
	}
}
