package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Each generator must turn one seed into one input stream, and another
// seed into another.
func TestSameSeedSameInputs(t *testing.T) {
	gens := map[string]func(seed uint64) *stream{
		"tpch-mqo": func(seed uint64) *stream {
			canonical, err := tpchCanonical(smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			return tpchInputs(canonical, seed)
		},
		"longstate-probe": func(seed uint64) *stream { return longInputs(seed, smokeScale) },
		"cluster-paced":   func(seed uint64) *stream { return clusterInputs(seed, smokeScale) },
		"query-churn":     func(seed uint64) *stream { return churnInputs(seed, churnStepsAt(smokeScale)) },
	}
	for name, gen := range gens {
		a, b, other := gen(7), gen(7), gen(8)
		if a.len() == 0 {
			t.Errorf("%s: empty stream", name)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if a.digest() == other.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {1_000_000, 0.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := percentile(sorted, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
	// Ten samples lie beyond the p90 of a hundred.
	if got := percentile(sorted, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %d, want 90", got)
	}
}

// The repeatability tool takes quartiles the way the driver does, with
// Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20, 40, 80, 160}, 15, 120},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// The open-loop pacer never sends early, returns the due time (so that
// latency is charged from it, not from the actual send) and counts the
// inputs the generator started late.
func TestPacerChargesFromDueTime(t *testing.T) {
	now := int64(1000)
	reads := 0
	clock := func() int64 { reads++; now += 100; return now } // every read costs 100 ns
	p := newPacer(clock, 1e6)                                 // one input per 1000 ns
	start := p.start

	if due := p.next(); due != start {
		t.Fatalf("first input due at %d, want the start %d", due, start)
	}
	before := now
	due := p.next()
	if due != start+1000 {
		t.Fatalf("second input due at %d, want %d", due, start+1000)
	}
	if now < due {
		t.Fatalf("returned at %d, before the due time %d", now, due)
	}
	if now == before {
		t.Fatal("the pacer did not wait for the due time")
	}

	// The system stalls for 5 ms: the next inputs are overdue, go out at
	// once, keep their original due times, and count as late.
	now += int64(5 * time.Millisecond)
	late := p.late
	for k := 2; k < 5; k++ {
		reads = 0
		if due := p.next(); due != start+int64(k)*1000 {
			t.Fatalf("input %d due at %d, want %d", k, due, start+int64(k)*1000)
		}
		if reads != 1 {
			t.Fatalf("input %d is overdue but the pacer read the clock %d times", k, reads)
		}
	}
	if p.late != late+3 {
		t.Errorf("late = %d, want %d", p.late, late+3)
	}
	if p.lateMax < int64(4*time.Millisecond) {
		t.Errorf("lateMax = %d ns, want at least 4 ms", p.lateMax)
	}
}

// A window reports rates at the nominal machine's speed: a slice timed
// while the kernel took twice its nominal time counts half its wall
// time, and a latency is divided by the factor of the slice its input
// fell in.
func TestWindowAdjustsByMachineFactor(t *testing.T) {
	ms := int64(time.Millisecond)
	w := &window{slices: []slice{
		{from: mark{tuples: 0, wall: 0, cpu: 0}, to: mark{tuples: 100, wall: 100 * ms, cpu: 50 * ms, alloc: 1000}, factor: 1},
		{from: mark{tuples: 100, wall: 200 * ms, cpu: 50 * ms, alloc: 5000}, to: mark{tuples: 200, wall: 400 * ms, cpu: 150 * ms, alloc: 6000}, factor: 2},
		{from: mark{tuples: 200, wall: 500 * ms, cpu: 150 * ms, alloc: 6000}, to: mark{tuples: 300, wall: 600 * ms, cpu: 200 * ms, alloc: 7000}, factor: 1},
	}}
	if got := w.tuplesPerSecond(); got != 1000 {
		t.Errorf("tuplesPerSecond = %v, want 1000: the slow slice ran on a machine half as fast", got)
	}
	if got := w.rawTuplesPerSecond(); got != 1000 {
		t.Errorf("rawTuplesPerSecond = %v, want the median 1000", got)
	}
	w.slices[0].factor, w.slices[2].factor = 2, 2
	if got := w.tuplesPerSecond(); got != 2000 {
		t.Errorf("tuplesPerSecond = %v, want 2000 when every slice ran at factor 2 (raw 1000, 500, 1000)", got)
	}
	if got := w.cpuSecondsPerMTuple(); got != 250 {
		t.Errorf("cpuSecondsPerMTuple = %v, want 250 (raw 500, 1000, 500 at factor 2)", got)
	}
	if got := w.allocBytesPerTuple(); got != 10 {
		t.Errorf("allocBytesPerTuple = %v, want 10: the bytes the kernel allocated between slices do not count", got)
	}
	if got := w.wallSeconds(); got != 0.4 {
		t.Errorf("wallSeconds = %v, want 0.4: the time between slices is not the window's", got)
	}
	w.slices[1].factor = 3
	for k, want := range map[int]float64{0: 2, 99: 2, 100: 3, 199: 3, 200: 2, 299: 2, 300: 2} {
		if got := w.factorAt(k); got != want {
			t.Errorf("factorAt(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "setup", Start: 0, End: 100, Parent: -1},
		{Name: "optimize", Start: 10, End: 60, Parent: 0},
		{Name: "solve", Start: 20, End: 50, Parent: 1},
		{Name: "install", Start: 60, End: 90, Parent: 0},
		{Name: "overlap", Start: 80, End: 95, Parent: 0}, // overlaps install by 10
		{Name: "alone", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{15, 20, 30, 30, 15, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tr := &tracer{spans: spans}
	if got := tr.total("optimize"); got != 50 {
		t.Errorf("total(optimize) = %d, want 50", got)
	}
	var none *tracer
	none.begin("ignored")()
	if none.total("ignored") != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

func TestDigestDiff(t *testing.T) {
	want := digest{Counts: map[string]int64{"q1": 10, "q2": 5}, Hashes: map[string]string{"q1": "aa", "q2": "bb"}}
	got := digest{Counts: map[string]int64{"q1": 7, "q2": 5}, Hashes: map[string]string{"q1": "cc", "q2": "bb"}}
	if bad, _ := got.diff(want, []string{"q1", "q2"}); bad != 3 {
		t.Errorf("three missing results counted as %d", bad)
	}
	got.Counts["q1"] = 10
	if bad, _ := got.diff(want, []string{"q1", "q2"}); bad != 1 {
		t.Errorf("equal counts with different contents counted as %d, want 1", bad)
	}
	if bad, _ := got.diff(want, []string{"q2"}); bad != 0 {
		t.Errorf("q2 agrees but counted %d", bad)
	}
}

// BENCHMARK.json at the root of the repository must declare exactly the
// workloads and metrics this harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the sizes are frozen for %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, implemented {%s %s}", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\ndeclared    %+v\nimplemented %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\ndeclared    %+v\nimplemented %+v", spec.PerLayer, perLayer)
	}
}

// A 1/50-scale pass over all four workloads: every run is correct,
// reports every end-to-end metric as a positive number, and reproduces
// the digest checked in for seed 1 at this size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloads {
		r, err := w.run(runOpts{seed: 1, scale: smokeScale, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, r.Attempted, r.Failed, r.Notes)
		}
		if !strings.HasPrefix(r.Checked, "the checked-in digest") {
			t.Errorf("%s: no digest checked in for seed 1 at the smoke size (checked by: %s)", w.Name, r.Checked)
		}
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, d.Name, v.Value)
			}
		}
	}
}

// The traced run yields every per-layer metric a workload exercises and
// a trace file in Chrome's format.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	dir := t.TempDir()
	r, err := runTraced(workloads[2], runOpts{seed: 1, scale: smokeScale, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Errorf("failed %d: %v", r.Failed, r.Notes)
	}
	for _, name := range []string{"runtime.insert_ns_per_tuple", "recovery.wal_append_ns_per_tuple", "runtime.flow.busy_share",
		"cluster.buildplan_ms", "stats.observe_ns_per_tuple", "tuple.encode_ns_per_tuple", "harness.recover_s"} {
		if !(r.Metrics[name].Value > 0) {
			t.Errorf("%s = %v on cluster-paced, want a positive number", name, r.Metrics[name].Value)
		}
	}
	if _, ok := r.Metrics["harness.trace_overhead_share"]; !ok {
		t.Error("harness.trace_overhead_share is not reported")
	}
	b, err := os.ReadFile(r.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.TraceEvents) == 0 || trace.TraceEvents[0].Ph != "X" {
		t.Errorf("trace holds %d events", len(trace.TraceEvents))
	}
}
