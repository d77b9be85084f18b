package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"clash/internal/query"
	"clash/internal/stats"
)

// newBuilder returns a builder on a fresh workspace and, when opts
// carries no Reopt, on a fresh one of those too, as Optimize gives a
// solve without one.
func newBuilder(opts Options, queries []*query.Query, est *stats.Estimates) *builder {
	if opts.Reopt == nil {
		opts.Reopt = NewReopt()
	}
	return newBuilderOn(new(workspace), opts, queries, est)
}

// planDump renders everything a plan carries that a solve could write
// through the workspace: the plan's text, its statistics, and per
// selected order its key, cost, steps and step variables, floats by
// their bits.
func planDump(p *Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s%x %d %v\n", p, math.Float64bits(p.Objective), p.Stats.Nodes, p.Stats.Status)
	for _, d := range p.Selected {
		fmt.Fprintf(&sb, "%s %x %v\n", d.Key(), math.Float64bits(d.Cost), d.ys)
		for _, s := range d.Steps {
			fmt.Fprintf(&sb, "  %s %s %s %x\n", s.Key, s.PrefixKey, s.Target.Label(), math.Float64bits(s.Cost))
		}
	}
	return sb.String()
}

// TestWorkspaceReuseKeepsPlans runs a 12-step controllerSchedule, two
// solves a step, on two Reopts fed the same calls: one lends every solve
// its workspace, the other's is held by the test so that every solve runs
// on a fresh one. The plans must agree at every step — text, node count
// and status — and a plan must be byte-unchanged after the next steps
// solve on the workspace it came from.
func TestWorkspaceReuseKeepsPlans(t *testing.T) {
	sched := controllerSchedule(t, 24, 1, 12)
	reused, fresh := NewReopt(), NewReopt()
	held := fresh.acquire()
	var plans []*Plan
	var dumps []string
	for s, step := range sched {
		reused.Advance()
		fresh.Advance()
		for _, restricted := range []bool{false, true} {
			var got [2]*Plan
			for i, r := range []*Reopt{reused, fresh} {
				opts := controllerOptions(r)
				if restricted {
					opts.MIREligible = func(key string) bool { return !step.banned[key] }
				}
				p, err := NewOptimizer(opts).Optimize(step.queries, step.est)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = p
			}
			if a, b := got[0], got[1]; a.String() != b.String() || a.Stats.Nodes != b.Stats.Nodes || a.Stats.Status != b.Stats.Status {
				t.Fatalf("step %d restricted=%v: reused workspace %d nodes, %v\n%s\nfresh workspaces %d nodes, %v\n%s",
					s, restricted, a.Stats.Nodes, a.Stats.Status, a, b.Stats.Nodes, b.Stats.Status, b)
			}
			plans, dumps = append(plans, got[0]), append(dumps, planDump(got[0]))
		}
		for i, p := range plans {
			if d := planDump(p); d != dumps[i] {
				t.Fatalf("after step %d: the plan of solve %d changed on its workspace\nwas:\n%s\nnow:\n%s", s, i, dumps[i], d)
			}
		}
	}
	if reused.ws == nil || reused.wsBusy {
		t.Fatalf("the reused Reopt's workspace: %v, busy %v; every solve should have returned it", reused.ws != nil, reused.wsBusy)
	}
	if fresh.ws != held {
		t.Fatal("a solve replaced the held workspace")
	}
	fresh.release(held)
}

// TestWorkspaceConcurrentOptimize has two goroutines optimize on one
// Reopt at once, as the Reopt's contract allows. Run under -race: one
// solve borrows the Reopt's workspace, the other gets a fresh one, and
// every plan keeps what it was solved to.
func TestWorkspaceConcurrentOptimize(t *testing.T) {
	sched := controllerSchedule(t, 24, 1, 4)
	reopt := NewReopt()
	if _, err := NewOptimizer(controllerOptions(reopt)).Optimize(sched[0].queries, sched[0].est); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	plans := make([][]*Plan, 2)
	dumps := make([][]string, 2)
	errs := make([]error, 2)
	for g := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, step := range sched[1:] {
				p, err := NewOptimizer(controllerOptions(reopt)).Optimize(step.queries, step.est)
				if err != nil {
					errs[g] = err
					return
				}
				plans[g], dumps[g] = append(plans[g], p), append(dumps[g], planDump(p))
			}
		}()
	}
	wg.Wait()
	for g := range plans {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, p := range plans[g] {
			if planDump(p) != dumps[g][i] {
				t.Fatalf("goroutine %d, solve %d: the plan changed after it was returned", g, i)
			}
		}
	}
	if reopt.ws == nil || reopt.wsBusy {
		t.Fatalf("the Reopt's workspace after the solves: %v, busy %v", reopt.ws != nil, reopt.wsBusy)
	}
}

// TestOptimizerWithoutReoptCarriesNothing optimizes one query set and then
// another on the same Optimizer, whose Options carry no Reopt. Each call
// runs on a fresh Reopt of its own, so the second plan must be exactly
// what a new Optimizer and an explicit NewReopt give for that set: no
// incumbent, cached structure or symbol of the first call reaches it.
// The same two calls on one shared Reopt must not give it, or the
// comparison could not tell.
func TestOptimizerWithoutReoptCarriesNothing(t *testing.T) {
	sched := controllerSchedule(t, 24, 1, 6)
	a, b := sched[0], sched[6]
	solve := func(o *Optimizer, step controllerStep) string {
		t.Helper()
		p, err := o.Optimize(step.queries, step.est)
		if err != nil {
			t.Fatal(err)
		}
		return planDump(p)
	}
	same := NewOptimizer(controllerOptions(nil))
	solve(same, a)
	got := solve(same, b)
	for name, o := range map[string]*Optimizer{
		"a new Optimizer":      NewOptimizer(controllerOptions(nil)),
		"an explicit NewReopt": NewOptimizer(controllerOptions(NewReopt())),
	} {
		if want := solve(o, b); got != want {
			t.Errorf("the second call differs from %s:\n%s\nwant:\n%s", name, got, want)
		}
	}
	carried := NewOptimizer(controllerOptions(NewReopt()))
	solve(carried, a)
	if solve(carried, b) == got {
		t.Error("a Reopt carried from the first call leaves the second plan's dump unchanged; the test cannot see carried state")
	}
}
