package bench

import "testing"

// TestLongStateShootout runs the long-state benchmark end to end at a
// reduced scale and checks the headline claims of DESIGN.md §10: the
// columnar backend wins probe and prune ns/op against the container
// baseline with equal-or-fewer allocations and a smaller resident
// footprint; the eviction stage kills EvictFail on every row of the
// state matrix while EvictOldestEpoch survives — by counted drops on
// the container and columnar rows, by lossless demotion on the tiered
// one (the columnar store with its spill tier on); and the tiered row
// holds a 10× window under the 1× resident budget with zero evictions.
func TestLongStateShootout(t *testing.T) {
	if testing.Short() {
		t.Skip("longstate shoot-out runs in the CI bench-smoke step")
	}
	res, err := LongState(LongStateConfig{Tuples: 8000, PruneWindow: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].Backend != "container" || res[1].Backend != "columnar" || res[2].Backend != "tiered" {
		t.Fatalf("unexpected result order: %+v", res)
	}
	ctr, col, trd := res[0], res[1], res[2]
	t.Log("\n" + FormatLongState(res))
	for _, r := range res {
		if r.FailDiedAt < 0 || !r.EvictSurvived {
			t.Errorf("%s: eviction stage inconclusive: %+v", r.Backend, r)
		}
		if r.Backend == "tiered" {
			if r.EvictedEpochs != 0 || r.DemotedEpochs == 0 {
				t.Errorf("tiered eviction stage: evicted %d epochs, demoted %d — want demote-only", r.EvictedEpochs, r.DemotedEpochs)
			}
		} else if r.EvictedEpochs == 0 {
			t.Errorf("%s: eviction stage inconclusive: %+v", r.Backend, r)
		}
		if r.ProbeMatches == 0 || r.Stored == 0 {
			t.Errorf("%s: vacuous stage: %+v", r.Backend, r)
		}
	}
	// Eviction points depend on each backend's own accounting, so the
	// lossy result sets legitimately differ — both must stay live and
	// keep answering.
	if ctr.EvictResults == 0 || col.EvictResults == 0 || trd.EvictResults == 0 {
		t.Errorf("eviction run stopped answering: container %d results, columnar %d, tiered %d",
			ctr.EvictResults, col.EvictResults, trd.EvictResults)
	}
	// The tiered 10× stage: everything beyond the hot budget is on
	// disk, nothing was evicted, and resident bytes track the budget.
	if trd.Tiered == nil {
		t.Fatal("tiered row reported no 10x-window stage")
	} else {
		st := trd.Tiered
		if st.EvictedTuples != 0 {
			t.Errorf("tiered 10x stage evicted %d tuples", st.EvictedTuples)
		}
		if st.SpilledBytes == 0 || st.DemotedEpochs == 0 {
			t.Errorf("tiered 10x stage spilled nothing (spilled=%d demoted=%d)", st.SpilledBytes, st.DemotedEpochs)
		}
		if st.ResidentBytes > 2*st.HotBudget {
			t.Errorf("tiered 10x stage resident %d exceeds 2x the %d hot budget", st.ResidentBytes, st.HotBudget)
		}
		if st.ColdHits == 0 || st.ColdMisses == 0 {
			t.Errorf("tiered 10x stage probes never exercised the stubs (hits=%d misses=%d)", st.ColdHits, st.ColdMisses)
		}
	}
	// Hot-path parity: with everything resident (the probe stage's hot
	// budget never binds) the tiered row is the columnar row plus the
	// tier's end-of-dispatch check, so its probe cost must stay in
	// columnar's neighborhood. The band is wide — the suite runs packages in
	// parallel, and a loaded machine skews a 13µs benchmark well past
	// real parity; the clash-bench baseline gate (compareLongState at
	// -regress-pct) is where the tight comparison lives.
	if float64(trd.ProbeNsOp) > 1.5*float64(col.ProbeNsOp) {
		t.Errorf("tiered hot probe beyond noise of columnar: %d > 1.5×%d ns/op", trd.ProbeNsOp, col.ProbeNsOp)
	}
	if trd.ProbeAllocsOp > col.ProbeAllocsOp {
		t.Errorf("tiered hot probe allocates more than columnar: %d > %d allocs/op", trd.ProbeAllocsOp, col.ProbeAllocsOp)
	}
	// The perf claims. Alloc budgets and byte accounting are
	// deterministic and asserted exactly. The ns/op comparisons are
	// real timing: the prune gap is asymptotic (the container rescans
	// every resident entry, the ring skips in-window segments), so a
	// strict check is safe; the probe gap (~10%) is within scheduler
	// noise on a loaded machine, so it gets headroom — the benchmark
	// itself (clash-bench -fig longstate, BENCH_fig7.json) is where
	// the win is tracked.
	if col.ProbeAllocsOp > ctr.ProbeAllocsOp {
		t.Errorf("columnar probe allocates more: %d > %d allocs/op", col.ProbeAllocsOp, ctr.ProbeAllocsOp)
	}
	if col.PruneAllocsOp > ctr.PruneAllocsOp {
		t.Errorf("columnar prune allocates more: %d > %d allocs/op", col.PruneAllocsOp, ctr.PruneAllocsOp)
	}
	if float64(col.ProbeNsOp) > 1.15*float64(ctr.ProbeNsOp) {
		t.Errorf("columnar probe slower than container beyond noise: %d > 1.15×%d ns/op", col.ProbeNsOp, ctr.ProbeNsOp)
	}
	if col.PruneNsOp > ctr.PruneNsOp {
		t.Errorf("columnar prune slower than container: %d > %d ns/op", col.PruneNsOp, ctr.PruneNsOp)
	}
	if col.StateBytes >= ctr.StateBytes {
		t.Errorf("columnar resident bytes %d not below container %d", col.StateBytes, ctr.StateBytes)
	}
}
