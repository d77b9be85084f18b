package sim

import (
	"testing"

	"clash/internal/runtime"
)

// base is the shared scenario: a multi-query workload with a shared
// S–T prefix and windowed relations — enough structure to exercise
// multi-hop chains, pruning, and partitioned routing.
func base() Scenario {
	return Scenario{
		Workload: "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)",
		Window:   40,
		Stream:   StreamConfig{Tuples: 300, Keys: 5, Seed: 21},
		Seed:     1,
		StepMode: true,
	}
}

// TestScenarioRunAndVerify: a seeded run computes the exact answer and
// produces a non-empty schedule trace.
func TestScenarioRunAndVerify(t *testing.T) {
	sc := base()
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyExact(); err != nil {
		t.Fatal(err)
	}
	if res.TotalResults() == 0 {
		t.Fatal("no results — test vacuous")
	}
	if res.Trace.Len() == 0 {
		t.Fatal("empty schedule trace")
	}
}

// TestReplayIsExact: replaying a scenario from its seed reproduces the
// identical schedule (divergence detection returns -1) and digest.
func TestReplayIsExact(t *testing.T) {
	sc := base()
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	again, at, err := sc.Replay(res)
	if err != nil {
		t.Fatal(err)
	}
	if at >= 0 {
		t.Fatalf("replay diverges at step %d:\n%s", at, res.Trace.Format(at, 3))
	}
	if res.Trace.Digest() != again.Trace.Digest() {
		t.Error("identical traces, different digests")
	}
}

// TestDivergenceDetection: traces from different seeds must be caught
// by DivergesAt and produce distinct digests.
func TestDivergenceDetection(t *testing.T) {
	sc := base()
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 2
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if at := a.Trace.DivergesAt(b.Trace); at < 0 {
		t.Fatal("seeds 1 and 2 produced the identical schedule — divergence detection vacuous")
	}
	if a.Trace.Digest() == b.Trace.Digest() {
		t.Error("diverging traces share a digest")
	}
}

// TestSweepExploresSchedules: a seed sweep stays exact on every seed
// and actually explores distinct schedules.
func TestSweepExploresSchedules(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 4
	}
	sc := base()
	distinct, err := sc.Sweep(n)
	if err != nil {
		t.Fatal(err)
	}
	if distinct < n/2 {
		t.Errorf("%d seeds produced only %d distinct schedules", n, distinct)
	}
}

// TestSweepBackendMatrix is the 16-seed sim-sweep matrix over the state
// configurations (StateConfigs, DESIGN.md §10): for every schedule seed,
// the container, columnar, and tiered rows must produce byte-identical
// result multisets AND byte-identical schedule traces — the store
// layout (including cold epochs spilled to disk) must be invisible to
// both the answer and the scheduler — and each (seed, backend) run
// must replay trace-identically from its seed. The tiered arm runs
// under a hot budget small enough to force real demotions, and the
// test rejects a sweep where no epoch ever went cold.
func TestSweepBackendMatrix(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 4
	}
	distinct := map[uint64]bool{}
	var demoted, coldHits int64
	for seed := uint64(1); seed <= uint64(n); seed++ {
		var ref *Result
		for _, row := range StateConfigs() {
			backend := row.Name
			sc := base()
			// Epoch granularity is shared by all three rows (it shapes
			// pruning), so traces stay comparable; the hot budget only
			// exists on the tiered row.
			sc.EpochLength = 8
			sc.Seed = seed
			sc.UseState(row)
			res, err := sc.Run()
			if err != nil {
				t.Fatalf("seed %d backend %v: %v", seed, backend, err)
			}
			if err := res.VerifyExact(); err != nil {
				t.Fatalf("seed %d backend %v: %v", seed, backend, err)
			}
			if res.TotalResults() == 0 {
				t.Fatalf("seed %d backend %v: no results — matrix vacuous", seed, backend)
			}
			if row.HotBytes > 0 {
				demoted += res.Metrics.DemotedEpochs
				coldHits += res.Metrics.ColdProbeHits
				if res.Metrics.EvictedEpochs != 0 {
					t.Fatalf("seed %d: tiered row evicted %d epochs under demote-first",
						seed, res.Metrics.EvictedEpochs)
				}
			}
			// Same-seed determinism on this backend.
			if _, at, err := sc.Replay(res); err != nil || at >= 0 {
				t.Fatalf("seed %d backend %v: replay diverged (at=%d err=%v)", seed, backend, at, err)
			}
			if ref == nil {
				ref = res
				distinct[res.Trace.Digest()] = true
				continue
			}
			// Cross-backend: identical answers, identical schedules.
			for name, want := range ref.Results {
				got := res.Results[name]
				if len(got) != len(want) {
					t.Fatalf("seed %d: %s has %d distinct results on %v, %d on container",
						seed, name, len(got), backend, len(want))
				}
				for k, c := range want {
					if got[k] != c {
						t.Fatalf("seed %d: %s result %q count %d on %v, %d on container",
							seed, name, k, got[k], backend, c)
					}
				}
			}
			if at := ref.Trace.DivergesAt(res.Trace); at >= 0 {
				t.Fatalf("seed %d: schedule diverges across backends at step %d:\n%s",
					seed, at, ref.Trace.Format(at, 3))
			}
		}
	}
	if len(distinct) < n/2 {
		t.Errorf("%d seeds explored only %d distinct schedules", n, len(distinct))
	}
	if demoted == 0 {
		t.Error("tiered arm never demoted an epoch — hot budget too generous, matrix vacuous for tiering")
	}
	if coldHits == 0 {
		t.Error("tiered arm never answered a probe from a cold epoch — spill path untested")
	}
}

// TestTaskStallFaultKeepsExactness: a stalled store task delays its
// work without changing the answer, and the faulted run replays.
func TestTaskStallFaultKeepsExactness(t *testing.T) {
	sc := base()
	sc.Faults = []Fault{TaskStall{Part: -1, Every: 2, Until: 400}}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Stalls() == 0 {
		t.Fatal("no stalls traced — fault inert")
	}
	if err := res.VerifyExact(); err != nil {
		t.Fatal(err)
	}
	if _, at, err := sc.Replay(res); err != nil || at >= 0 {
		t.Fatalf("fault replay diverged (at=%d err=%v)", at, err)
	}
}

// TestSourceHiccupUnderFlowControl is the injected-fault scenario of
// the acceptance criteria: a source hiccup releases a held burst into a
// credit-starved engine whose store tasks stall; under BlockOnOverload
// the admission gate absorbs it losslessly and the run stays exact over
// the delivered order — and the whole incident replays from its seed,
// on every row of the state matrix (the tiered row demoting).
func TestSourceHiccupUnderFlowControl(t *testing.T) {
	for _, row := range StateConfigs() {
		t.Run(row.Name, func(t *testing.T) {
			sc := base()
			sc.Stream = StreamConfig{Tuples: 500, Keys: 5, Seed: 42}
			sc.Seed = 7
			sc.Credits = 4
			sc.Faults = []Fault{
				SourceHiccup{At: 100, Hold: 120},
				TaskStall{Part: -1, Every: 3, Until: 600},
			}
			sc.UseState(row)
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Ingested != int64(len(res.Delivered)) {
				t.Errorf("admitted %d of %d delivered tuples under BlockOnOverload",
					res.Metrics.Ingested, len(res.Delivered))
			}
			if res.Trace.Stalls() == 0 {
				t.Error("no stalls traced — TaskStall inert")
			}
			if row.HotBytes > 0 && res.Metrics.DemotedEpochs == 0 {
				t.Error("no epoch demoted — the hot budget never bit")
			}
			// The hiccup reorders delivery (late data), so the oracle's
			// in-order precondition is gone; the schedule-independence
			// property is what must survive any fault: byte-identical
			// results vs the synchronous substrate over the same
			// delivered stream.
			if err := sc.VerifySubstrateIndependent(res); err != nil {
				t.Fatal(err)
			}
			// The hiccup genuinely reordered delivery: the burst window moved.
			plain := sc
			plain.Faults = nil
			plainRes, err := plain.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(plainRes.Delivered) != len(res.Delivered) {
				t.Fatalf("hiccup changed the stream length")
			}
			moved := false
			for i := range res.Delivered {
				if res.Delivered[i].TS != plainRes.Delivered[i].TS {
					moved = true
					break
				}
			}
			if !moved {
				t.Fatal("hiccup did not reorder delivery — fault inert")
			}
			if _, at, err := sc.Replay(res); err != nil || at >= 0 {
				t.Fatalf("hiccup replay diverged (at=%d err=%v)", at, err)
			}
			t.Logf("%d results, %d stalls, %d epochs demoted", res.TotalResults(), res.Trace.Stalls(), res.Metrics.DemotedEpochs)
		})
	}
}

// TestCreditStarvationShedsDeterministically: under ShedOnOverload a
// starved scenario sheds — and sheds the same tuples on every run.
func TestCreditStarvationShedsDeterministically(t *testing.T) {
	sc := base()
	sc.StepMode = false // backlog only builds free-running
	sc.Policy = runtime.ShedOnOverload
	sc.Stream.Tuples = 1500
	sc.Faults = []Fault{CreditStarvation{Credits: 2}}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.ShedTuples == 0 {
		t.Fatal("no tuples shed — starvation inert")
	}
	if a.Metrics.Ingested+a.Metrics.ShedTuples != int64(len(a.Delivered)) {
		t.Errorf("admitted %d + shed %d != offered %d",
			a.Metrics.Ingested, a.Metrics.ShedTuples, len(a.Delivered))
	}
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.ShedTuples != b.Metrics.ShedTuples || a.TotalResults() != b.TotalResults() {
		t.Errorf("lossy run not deterministic: shed %d/%d results %d/%d",
			a.Metrics.ShedTuples, b.Metrics.ShedTuples, a.TotalResults(), b.TotalResults())
	}
	if at := a.Trace.DivergesAt(b.Trace); at >= 0 {
		t.Errorf("lossy replay diverges at step %d", at)
	}
}
