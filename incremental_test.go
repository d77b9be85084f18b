package clash

import (
	"sort"
	"testing"
	"time"
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
