package bench

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func buildFig7(numQueries int, sf float64) (*fig7Setup, error) {
	cfg := Fig7Config{SF: sf, NumQueries: numQueries}
	cfg.fill()
	return newFig7Setup(cfg)
}

// The Fig. 7 tests read the same two workloads — five queries at SF
// 0.0005, ten at SF 0.0002 — so each is planned once; nothing mutates a
// setup (every run compiles its own topology and starts its own engine).
var (
	fig7Five = sync.OnceValues(func() (*fig7Setup, error) { return buildFig7(5, 0.0005) })
	fig7Ten  = sync.OnceValues(func() (*fig7Setup, error) { return buildFig7(10, 0.0002) })
)

func TestFig7ShapesHold(t *testing.T) {
	setup, err := fig7Five()
	if err != nil {
		t.Fatal(err)
	}
	res, err := setup.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d strategies", len(res))
	}
	byS := map[Strategy]Fig7Result{}
	for _, r := range res {
		byS[r.Strategy] = r
		if r.ProbeTuples <= 0 || r.MemoryBytes <= 0 {
			t.Errorf("%s: degenerate result %+v", r.Strategy, r)
		}
	}
	// Shape 1 (Fig. 7c): independent execution needs more memory than
	// shared execution (the paper: 3.1x with five queries).
	if byS[StormIndependent].MemoryBytes <= byS[StormShared].MemoryBytes {
		t.Errorf("memory shape violated: SI %d <= SS %d",
			byS[StormIndependent].MemoryBytes, byS[StormShared].MemoryBytes)
	}
	// Shape 2: CMQO sends no more probe tuples than naive sharing, which
	// sends no more than independent execution.
	if byS[CLASHMQO].ProbeTuples > byS[StormShared].ProbeTuples {
		t.Errorf("probe shape violated: CMQO %d > SS %d",
			byS[CLASHMQO].ProbeTuples, byS[StormShared].ProbeTuples)
	}
	if byS[StormShared].ProbeTuples > byS[StormIndependent].ProbeTuples {
		t.Errorf("probe shape violated: SS %d > SI %d",
			byS[StormShared].ProbeTuples, byS[StormIndependent].ProbeTuples)
	}
	// Shape 3: every strategy computes the same results per query.
	want := byS[FlinkIndependent].Results
	for s, r := range byS {
		if r.Results != want {
			t.Errorf("strategy %s produced %d results, others %d", s, r.Results, want)
		}
	}
	// Formatting smoke test.
	if out := FormatFig7(res); !strings.Contains(out, "CMQO") {
		t.Error("FormatFig7 output incomplete")
	}
}

// fig7Counts is what of a Fig. 7 bar is a count: a function of the
// plan and the stream, never of the machine.
type fig7Counts struct {
	ProbeTuples, Candidates, MemoryBytes, Results int64
	Stores                                        int
}

func countsOf(r Fig7Result) fig7Counts {
	return fig7Counts{r.ProbeTuples, r.Candidates, r.MemoryBytes, r.Results, r.Stores}
}

// TestFig7FixtureRepeats is the drift check of the Fig. 7 workload,
// exact: two builds of the fixture agree on every plan (five and ten
// queries), every plan's objective — the joint one and each query's
// individual one — matches the one pinned below, two runs of the figure
// agree on every count of every strategy, and the CMQO row matches the
// counts pinned below. A change that moves them changed the generator,
// the statistics, the optimizer or the runtime's accounting — say which,
// then regenerate with
//
//	go test ./internal/bench/ -run TestFig7FixtureRepeats -v
//
// and copy the logged objectives and row.
func TestFig7FixtureRepeats(t *testing.T) {
	pinned := fig7Counts{ProbeTuples: 52225, Candidates: 18937, MemoryBytes: 4062640, Results: 4703, Stores: 21}
	// Per workload: the joint objective, then q1, q2, … individually.
	objectives := map[int][]float64{
		10: {13476.526562500007, 403.33333333333337, 933, 8874.5, 7481.3191406249998, 7528.2960937499993, 58, 1795, 189, 2013.8794270833332, 61},
		5:  {31063.265463594693, 895.83333333333337, 2220, 21975, 18002.275846226512, 18499.510491182955},
	}
	pinObjective := func(what string, got, want float64) {
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: objective %.17g, pinned %.17g", what, got, want)
		}
	}

	// twoBuilds returns the tests' shared build of a workload and a
	// fresh one, after holding every plan of the two against each other.
	twoBuilds := func(numQueries int, sf float64, shared func() (*fig7Setup, error)) (a, b *fig7Setup) {
		a, err := shared()
		if err != nil {
			t.Fatal(err)
		}
		if b, err = buildFig7(numQueries, sf); err != nil {
			t.Fatal(err)
		}
		if a.joint.String() != b.joint.String() || a.joint.Objective != b.joint.Objective {
			t.Errorf("%d queries: joint plan differs between two builds:\n%s(objective %v)\n%s(objective %v)",
				numQueries, a.joint, a.joint.Objective, b.joint, b.joint.Objective)
		}
		for i := range a.individual {
			if a.individual[i].String() != b.individual[i].String() || a.individual[i].Objective != b.individual[i].Objective {
				t.Errorf("%d queries: plan of %s differs between two builds", numQueries, a.Queries[i].Name)
			}
		}
		want := objectives[numQueries]
		t.Logf("%d queries at SF %g: joint objective %.17g", numQueries, sf, a.joint.Objective)
		pinObjective(fmt.Sprintf("%d queries, joint", numQueries), a.joint.Objective, want[0])
		for i, p := range a.individual {
			t.Logf("  %s individually: %.17g", a.Queries[i].Name, p.Objective)
			pinObjective(fmt.Sprintf("%d queries, %s individually", numQueries, a.Queries[i].Name), p.Objective, want[1+i])
		}
		return a, b
	}
	twoBuilds(10, 0.0002, fig7Ten)
	a, b := twoBuilds(5, 0.0005, fig7Five)

	first, err := a.run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range first {
		if countsOf(r) != countsOf(second[i]) {
			t.Errorf("%s: counts differ between two runs: %+v vs %+v", r.Strategy, countsOf(r), countsOf(second[i]))
		}
		if r.EvictedEpochs != 0 {
			t.Errorf("%s: evicted %d epochs, want 0: the Fig. 7 workload fits in memory", r.Strategy, r.EvictedEpochs)
		}
	}
	cmqo := first[len(first)-1]
	if cmqo.Strategy != CLASHMQO {
		t.Fatalf("last row is %s, want %s", cmqo.Strategy, CLASHMQO)
	}
	t.Logf("CMQO, five queries at SF 0.0005: %#v", countsOf(cmqo))
	if countsOf(cmqo) != pinned {
		t.Errorf("CMQO counts drifted: %+v, pinned %+v", countsOf(cmqo), pinned)
	}
}

func TestFig8AdaptiveRecoveres(t *testing.T) {
	cfg := Fig8Config{
		Rate:   800,
		Window: 300 * time.Millisecond,
		Epoch:  75 * time.Millisecond,
		Before: 900 * time.Millisecond,
		After:  900 * time.Millisecond,
		Bucket: 150 * time.Millisecond,
		Fanout: 100,
	}
	adaptive, err := Fig8('a', true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Fig8('a', false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive) == 0 || len(static) == 0 {
		t.Fatal("empty series")
	}
	for _, p := range adaptive {
		if p.Failed {
			t.Fatal("adaptive execution failed; it must survive the spike")
		}
	}
	// Shape: after the shift the static plan sends drastically more
	// probe tuples than the adaptive one (exploding R⋈S intermediate),
	// or dies outright.
	var aProbes, sProbes int64
	staticFailed := false
	for _, p := range adaptive {
		aProbes += p.Probes
	}
	for _, p := range static {
		sProbes += p.Probes
		staticFailed = staticFailed || p.Failed
	}
	if !staticFailed && sProbes <= aProbes {
		t.Errorf("static shape violated: static probes %d <= adaptive %d and no failure",
			sProbes, aProbes)
	}
	if out := FormatFig8(adaptive, static); !strings.Contains(out, "adaptive") {
		t.Error("FormatFig8 output incomplete")
	}
}

func TestFig8bMaterializes(t *testing.T) {
	cfg := Fig8Config{
		FastRate: 1600, SlowRate: 40,
		Window: 300 * time.Millisecond,
		Epoch:  75 * time.Millisecond,
		Before: 900 * time.Millisecond,
		After:  1200 * time.Millisecond,
		Bucket: 300 * time.Millisecond,
	}
	adaptive, err := Fig8('b', true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive) == 0 {
		t.Fatal("empty series")
	}
	for _, p := range adaptive {
		if p.Failed {
			t.Fatal("adaptive run failed")
		}
	}
}

func TestFig9CostShapes(t *testing.T) {
	cfg := Fig9Config{Relations: 10}
	points, err := Fig9Cost(cfg, []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		// Shape (Fig. 9a): shared optimization never costs more than
		// individual optimization.
		if p.MQO > p.Individual+1e-6 {
			t.Errorf("nQ=%d: MQO %g > individual %g", p.NQ, p.MQO, p.Individual)
		}
		if p.Variables <= 0 || p.ProbeOrders <= 0 {
			t.Errorf("nQ=%d: degenerate problem size %+v", p.NQ, p)
		}
	}
	// Monotonicity (both curves grow with more queries).
	if points[1].Individual <= points[0].Individual {
		t.Error("individual cost did not grow with nQ")
	}
	if points[1].Variables <= points[0].Variables {
		t.Error("problem size did not grow with nQ")
	}
	if out := FormatFig9Cost(points); !strings.Contains(out, "MQO") {
		t.Error("FormatFig9Cost output incomplete")
	}
}

func TestFig9SavingsWithSharing(t *testing.T) {
	// Over only 10 relations, 20+ queries must exhibit clear sharing
	// savings (the paper reports ~50% at high nQ).
	cfg := Fig9Config{Relations: 10}
	points, err := Fig9Cost(cfg, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	savings := 1 - p.MQO/p.Individual
	if savings < 0.10 {
		t.Errorf("sharing savings = %.1f%%, want >= 10%%", savings*100)
	}
}

func TestFig9QuerySizes(t *testing.T) {
	cfg := Fig9Config{Relations: 100, CapCandidates: 16}
	points, err := Fig9QuerySizes(cfg, []int{3, 4}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Shape (Fig. 9f): larger queries cost disproportionally more to
	// optimize (problem size grows).
	if points[1].Variables <= points[0].Variables {
		t.Errorf("size-4 problem (%d vars) not larger than size-3 (%d vars)",
			points[1].Variables, points[0].Variables)
	}
	if out := FormatFig9Sizes(points); !strings.Contains(out, "size") {
		t.Error("FormatFig9Sizes output incomplete")
	}
}
