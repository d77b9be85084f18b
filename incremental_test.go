package clash

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"clash/internal/rng"
	"clash/internal/workload"
)

// churnRun executes a fixed ingest schedule with mid-run query churn on
// the deterministic simulation substrate and returns every query's
// rendered results, sorted (arrival order is schedule-dependent; content
// must not be).
func churnRun(t *testing.T, incremental, measured bool) (map[string][]string, float64) {
	t.Helper()
	eng, err := Start(Config{
		Workload:         "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b)",
		Substrate:        SubstrateSim,
		Sim:              SimConfig{Seed: 7},
		StepMode:         true,
		DefaultWindow:    10000 * time.Nanosecond,
		EpochLength:      100,
		Adaptive:         true,
		IncrementalReopt: incremental,
		MeasuredCosts:    measured,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	results := map[string][]string{}
	collect := func(name string) {
		eng.OnResult(name, func(tp *Tuple) {
			results[name] = append(results[name], tp.String())
		})
	}
	collect("q1")
	collect("q2")

	for i := 0; i < 45; i++ {
		k := Int(int64(i % 4))
		if err := eng.Ingest("R", Time(3*i), k); err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest("S", Time(3*i+1), k, k); err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest("T", Time(3*i+2), k); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 15:
			q3, _, err := ParseQuery("q3: S(a) R(a)")
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AddQuery(q3); err != nil {
				t.Fatal(err)
			}
			collect("q3")
		case 30:
			if err := eng.RemoveQuery("q2"); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Drain()
	if err := eng.Failure(); err != nil {
		t.Fatal(err)
	}
	for name := range results {
		sort.Strings(results[name])
	}
	obj := 0.0
	if p := eng.Plan(); p != nil {
		obj = p.Objective
	}
	return results, obj
}

// TestIncrementalReoptByteIdenticalResults is the end-to-end half of
// the incremental re-optimizer's acceptance: the same churn schedule,
// run with and without cross-churn optimizer state, produces
// byte-identical result sets for every query, and the final plans cost
// the same (the incremental solve is an optimization of solver effort,
// never of plan quality).
func TestIncrementalReoptByteIdenticalResults(t *testing.T) {
	scratch, scratchObj := churnRun(t, false, false)
	incr, incrObj := churnRun(t, true, false)

	for _, name := range []string{"q1", "q2", "q3"} {
		a, b := scratch[name], incr[name]
		if len(a) == 0 {
			t.Fatalf("%s: no results — test vacuous", name)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d results scratch, %d incremental", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: result %d differs:\n  scratch     %s\n  incremental %s", name, i, a[i], b[i])
			}
		}
	}
	if scratchObj != incrObj {
		t.Errorf("final plan cost %g incremental, %g scratch", incrObj, scratchObj)
	}
}

// TestMeasuredCostsKeepExactness pins that coefficient calibration is
// purely a planning-side concern: with runtime cost measurement (and
// the calibrated coefficients it feeds into re-optimization) switched
// on, every query's result set is byte-identical to the uncalibrated
// run. Calibration may change plans — never results.
func TestMeasuredCostsKeepExactness(t *testing.T) {
	plain, _ := churnRun(t, false, false)
	calibrated, _ := churnRun(t, true, true)

	for _, name := range []string{"q1", "q2", "q3"} {
		a, b := plain[name], calibrated[name]
		if len(a) == 0 {
			t.Fatalf("%s: no results — test vacuous", name)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d results plain, %d calibrated", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: result %d differs under measured costs:\n  plain      %s\n  calibrated %s", name, i, a[i], b[i])
			}
		}
	}
}

// churnPlans runs the benchmark's query-churn shape — 24 random
// three-way joins over 40 relations, then alternately admitting a fresh
// query and retiring the oldest, one step every 500 tuples of a uniform
// stream so each step plans under freshly sealed estimates — on an engine
// with cross-churn optimizer state and a node-capped solver. It renders
// the installed plan after every step: its objective bits and the key of
// every selected probe order, in order.
func churnPlans(t *testing.T, steps int) []string {
	t.Helper()
	const every = 500
	env := workload.NewEnv(40, 100)
	pool := env.RandomQueries(24+steps, 3, 1)
	if len(pool) < 24+steps {
		t.Fatalf("workload generation came up short (%d queries)", len(pool))
	}
	cfg := Config{
		Queries: pool[:24], Catalog: env.Catalog(),
		DefaultWindow:    16 * every,
		EpochLength:      every,
		Synchronous:      true,
		IncrementalReopt: true,
		InitialEstimates: env.Estimates(),
	}
	cfg.Optimizer = OptimizerOptions{DeterministicWarmStart: true, MaxCandidatesPerGroup: 12}
	cfg.Optimizer.Solver.MaxNodes = 2000
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	rels := env.Catalog().Names()
	r := rng.New(7)
	k := func() Value { return Int(int64(r.Intn(300))) }
	ts := Time(0)
	ingest := func() {
		for i := 0; i < every; i++ {
			if err := eng.Ingest(rels[r.Intn(len(rels))], ts, k(), k(), k()); err != nil {
				t.Fatal(err)
			}
			ts++
		}
	}
	render := func() string {
		p := eng.Plan()
		if p == nil {
			t.Fatal("no plan installed")
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%x", math.Float64bits(p.Objective))
		for _, d := range p.Selected {
			b.WriteString(" " + d.Key())
		}
		return b.String()
	}
	out := []string{render()}
	active := append([]*Query(nil), pool[:24]...)
	for s := 0; s < steps; s++ {
		ingest()
		if s%2 == 0 {
			q := pool[24+s/2]
			if err := eng.AddQuery(q); err != nil {
				t.Fatal(err)
			}
			active = append(active, q)
		} else {
			if err := eng.RemoveQuery(active[0].Name); err != nil {
				t.Fatal(err)
			}
			active = active[1:]
		}
		out = append(out, render())
	}
	return out
}

// TestChurnPlansIndependentOfCoreCount pins that a churn plan is a
// function of the model, the node budget and the warm start alone: the
// same schedule under one and under four schedulable cores installs the
// same plan after every AddQuery and RemoveQuery.
func TestChurnPlansIndependentOfCoreCount(t *testing.T) {
	steps := 12
	if testing.Short() {
		steps = 6
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	goruntime.GOMAXPROCS(1)
	one := churnPlans(t, steps)
	goruntime.GOMAXPROCS(4)
	four := churnPlans(t, steps)
	for s := range one {
		if one[s] != four[s] {
			t.Fatalf("step %d: the plan depends on GOMAXPROCS:\n  1 core:  %s\n  4 cores: %s", s, one[s], four[s])
		}
	}
}
