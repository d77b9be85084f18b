package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
	"clash/internal/tuple"
	"clash/internal/workload"
)

// engineChurnStepper starts a synchronous engine with its controller on
// the query-churn shape — 24 random three-way joins over 40 relations,
// incremental re-optimization, a window of 8 000 and epochs of 500 time
// units, one tuple per unit — fills the window, and returns one churn
// step pair as an engine runs it: AddQuery of a fresh query and the
// RemoveQuery that undoes it, Drain (both solves and installs), then the
// epoch of ingests that follows the install. It returns the engine too.
func engineChurnStepper(tb testing.TB) (func(), *Engine) {
	const (
		nRels, keys     = 40, 300
		window, epochOf = 8_000, 500
	)
	env := workload.NewEnv(nRels, 100)
	pool := env.RandomQueries(25, 3, 1)
	if len(pool) < 25 {
		tb.Fatalf("workload generation came up short (%d queries)", len(pool))
	}
	installed, fresh := pool[:24], pool[24]
	cat := env.Catalog()
	col := stats.NewCollector(256, 128, 1)
	eng := New(Config{
		Catalog:       cat,
		DefaultWindow: window,
		EpochLength:   epochOf,
		Substrate:     SubstrateSynchronous,
		Observer:      func(rel string, t *tuple.Tuple) { col.Observe(rel, t) },
	})
	tb.Cleanup(eng.Stop)
	opts := core.Options{DeterministicWarmStart: true, MaxCandidatesPerGroup: 12}
	opts.Solver.MaxNodes = 2_000
	ctl, err := NewController(eng, ControllerConfig{
		Optimizer:        core.NewOptimizer(opts),
		Collector:        col,
		Shared:           true,
		Static:           true,
		IncrementalReopt: true,
	}, installed, env.Estimates())
	if err != nil {
		tb.Fatal(err)
	}
	rels := cat.Names()
	r := rng.New(7)
	ts := tuple.Time(0)
	vals := make([]tuple.Value, 3)
	ingest := func(n int) {
		for range n {
			ts++
			for j := range vals {
				vals[j] = tuple.IntValue(int64(r.Intn(keys)))
			}
			if err := eng.Ingest(rels[r.Intn(len(rels))], ts, vals...); err != nil {
				tb.Fatal(err)
			}
			if err := ctl.Tick(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	churn := func(q *query.Query) {
		if err := ctl.AddQuery(q); err != nil {
			tb.Fatal(err)
		}
		if err := ctl.RemoveQuery(q.Name); err != nil {
			tb.Fatal(err)
		}
		eng.Drain()
		ingest(epochOf)
	}
	ingest(window)
	churn(fresh) // the fresh query's stores and tasks exist from here on
	return func() { churn(fresh) }, eng
}

// BenchmarkEngineChurnStep times a churn step pair on a running engine:
// the controller's solves, Compile, Install and the epoch that follows,
// whose tasks run under the new configuration.
func BenchmarkEngineChurnStep(b *testing.B) {
	step, _ := engineChurnStepper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestEngineChurnStepAllocs holds a churn step pair, run exactly as
// BenchmarkEngineChurnStep runs it, to a budget in bytes and objects: no
// clock. While every install recompiled every rule, every task rebuilt
// its schema caches and the controller compared plans by rendering them,
// a pair allocated 4.56 MB in 43.7 k objects here, and 3.24 MB in
// 23.9 k once they did not. Since structure keys hold only what a
// structure reads of the workload and a step compiles its topology by
// difference, it allocates 2.52 MB in 18.2 k objects, and the bounds are
// 1.25× that.
func TestEngineChurnStepAllocs(t *testing.T) {
	step, _ := engineChurnStepper(t)
	const runs = 4
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range runs {
		step()
	}
	goruntime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objects := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.0f B in %.0f objects per churn step pair", bytes, objects)
	const byteLimit, objectLimit = 3_150_000, 22_800
	if bytes > byteLimit || objects > objectLimit {
		t.Fatalf("%.0f B in %.0f objects per churn step pair, want at most %d B and %d objects", bytes, objects, byteLimit, objectLimit)
	}
}

// TestChurnStepMeters runs churn step pairs on the synchronous engine and
// reads the step meters: each pair installs two configurations (the
// arrival's and the expiry's), and every installed step adds solve,
// compile and install time; the set-up counts in none of them.
func TestChurnStepMeters(t *testing.T) {
	step, eng := engineChurnStepper(t)
	before := eng.Metrics().Snapshot()
	if before.Steps != 2 {
		t.Fatalf("%d steps metered after the set-up and one churn step pair, want 2", before.Steps)
	}
	const pairs = 3
	for range pairs {
		step()
	}
	after := eng.Metrics().Snapshot()
	if got := after.Steps - before.Steps; got != 2*pairs {
		t.Fatalf("%d steps metered for %d churn step pairs, want %d", got, pairs, 2*pairs)
	}
	for name, d := range map[string]time.Duration{
		"solve":   after.StepSolve - before.StepSolve,
		"compile": after.StepCompile - before.StepCompile,
		"install": after.StepInstall - before.StepInstall,
	} {
		if d <= 0 {
			t.Errorf("%d steps metered %v of %s time", 2*pairs, d, name)
		}
	}
	t.Logf("per step: solve %v, compile %v, install %v", (after.StepSolve-before.StepSolve)/(2*pairs),
		(after.StepCompile-before.StepCompile)/(2*pairs), (after.StepInstall-before.StepInstall)/(2*pairs))
}
