package clash

import (
	"fmt"
	"maps"
	"math"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/runtime"
	"clash/internal/workload"
)

// TestIncrementalReoptByteIdenticalResults is the end-to-end half of
// the incremental re-optimizer's acceptance: on the deterministic
// simulation substrate, with q3 added and q2 removed mid-stream, every
// re-optimization runs on the controller's cross-churn optimizer state,
// and the never-churned q1 still returns exactly the reference join's
// results.
func TestIncrementalReoptByteIdenticalResults(t *testing.T) {
	const workload = "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b)"
	const window = 10000 * time.Nanosecond
	eng, err := Start(Config{
		Workload:      workload,
		Substrate:     SubstrateSim,
		Sim:           SimConfig{Seed: 7},
		StepMode:      true,
		DefaultWindow: window,
		EpochLength:   100,
		Adaptive:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	q1 := runtime.NewCollectSink()
	eng.OnResult("q1", q1.Add)
	q3 := runtime.NewCollectSink()

	var ins []runtime.Ingestion
	ingest := func(rel string, ts Time, vals ...Value) {
		if err := eng.Ingest(rel, ts, vals...); err != nil {
			t.Fatal(err)
		}
		ins = append(ins, runtime.Ingestion{Rel: rel, TS: ts, Vals: vals})
	}
	for i := 0; i < 45; i++ {
		k := Int(int64(i % 4))
		ingest("R", Time(3*i), k)
		ingest("S", Time(3*i+1), k, k)
		ingest("T", Time(3*i+2), k)
		switch i {
		case 15:
			q, _, err := ParseQuery("q3: S(a) R(a)")
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AddQuery(q); err != nil {
				t.Fatal(err)
			}
			eng.OnResult("q3", q3.Add)
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
	if q3.Count() == 0 {
		t.Fatal("q3 returned nothing: the churn is vacuous")
	}

	qs, cat, err := query.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	want, got := runtime.ReferenceJoin(qs[0], cat, window, ins), q1.Results()
	if len(want) == 0 {
		t.Fatal("the reference has no q1 results: test vacuous")
	}
	if !maps.Equal(got, want) {
		t.Fatalf("q1 returned %d results (%d distinct) across the churn, the reference %d distinct", q1.Count(), len(got), len(want))
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
		InitialEstimates: env.Estimates(),
	}
	cfg.Optimizer = OptimizerOptions{MaxCandidatesPerGroup: 12}
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
		// Plan is the installed plan: drain so it is step s's, not the
		// previous step's still waiting for its epoch.
		eng.Drain()
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

// TestStopWaitsForSolves pins that a solve running beside the stream
// never outlives its engine: Stop right after AddQuery, with the solve
// still in flight, fifty times over, leaves no goroutine behind.
func TestStopWaitsForSolves(t *testing.T) {
	env := workload.NewEnv(40, 100)
	pool := env.RandomQueries(25, 3, 1)
	if len(pool) < 25 {
		t.Fatalf("workload generation came up short (%d queries)", len(pool))
	}
	cfg := Config{
		Queries: pool[:24], Catalog: env.Catalog(),
		DefaultWindow:    8000,
		EpochLength:      500,
		Synchronous:      true,
		InitialEstimates: env.Estimates(),
	}
	cfg.Optimizer = OptimizerOptions{MaxCandidatesPerGroup: 12}
	cfg.Optimizer.Solver.MaxNodes = 2000
	base := goruntime.NumGoroutine()
	for i := 0; i < 50; i++ {
		eng, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.AddQuery(pool[24]); err != nil {
			t.Fatal(err)
		}
		eng.Stop()
	}
	deadline := time.Now().Add(10 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 50 Start/AddQuery/Stop rounds, %d before", goruntime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailedSolveFailsEngine pins where a re-optimization's error goes
// now that AddQuery no longer solves: AddQuery returns once the query is
// registered, and the solve's failure fails the engine at its barrier —
// the Ingest that reaches the target epoch returns it, and Failure
// reports it after Drain. A disconnected query has no probe order, so
// its solve fails every time.
func TestFailedSolveFailsEngine(t *testing.T) {
	bad, _, err := ParseQuery("q2: R(a) S(a) T(b) U(b)")
	if err != nil {
		t.Fatal(err)
	}
	start := func() *Engine {
		eng, err := Start(Config{
			Workload:      "q1: R(a) S(a,b) T(b)\nq9: T(b) U(b)",
			Synchronous:   true,
			DefaultWindow: 1000,
			EpochLength:   100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest("R", 150, Int(1)); err != nil { // epoch 1
			t.Fatal(err)
		}
		if err := eng.AddQuery(bad); err != nil {
			t.Fatalf("AddQuery reported the solve: %v", err)
		}
		if err := eng.AddQuery(bad); err == nil {
			t.Fatal("a duplicate name must still fail AddQuery")
		}
		return eng
	}

	eng := start()
	defer eng.Stop()
	if err := eng.Ingest("R", 199, Int(1)); err != nil {
		t.Fatalf("the failure surfaced before the target epoch: %v", err)
	}
	err = eng.Ingest("R", 200, Int(1)) // epoch 2: the barrier
	if err == nil || !strings.Contains(err.Error(), "no probe order") {
		t.Fatalf("Ingest at the target epoch returned %v, want the solve's error", err)
	}
	if eng.Failure() != err {
		t.Fatalf("Failure() = %v, want the error Ingest returned (%v)", eng.Failure(), err)
	}
	if eng.Ingest("R", 201, Int(1)) == nil {
		t.Fatal("a failed engine accepted another tuple")
	}

	drained := start()
	defer drained.Stop()
	drained.Drain()
	if err := drained.Failure(); err == nil || !strings.Contains(err.Error(), "no probe order") {
		t.Fatalf("Failure() after Drain = %v, want the solve's error", err)
	}
}
