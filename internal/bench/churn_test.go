package bench

import "testing"

// TestChurnSmoke runs the churn series at a reduced scale: Churn itself
// fails when an incremental plan costs more than the scratch plan of
// the same step, and two runs must agree on every count (both arms
// solve under a node budget, not a clock).
func TestChurnSmoke(t *testing.T) {
	cfg := ChurnConfig{Steps: 3}
	first, err := Churn(cfg, []int{30})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Churn(cfg, []int{30})
	if err != nil {
		t.Fatal(err)
	}
	a, b := first[0], second[0]
	if a.ScratchCost <= 0 || a.IncrementalCost > a.ScratchCost {
		t.Errorf("plan costs: scratch %g, incremental %g", a.ScratchCost, a.IncrementalCost)
	}
	if a.MemoHitRate == 0 {
		t.Error("MIR memo never hit — the incremental arm carried no state")
	}
	a.ScratchWallNS, a.IncrementalWall, b.ScratchWallNS, b.IncrementalWall = 0, 0, 0, 0
	a.ScratchCandNS, a.IncrementalCand, b.ScratchCandNS, b.IncrementalCand = 0, 0, 0, 0
	if a != b {
		t.Errorf("two runs disagree:\n%+v\n%+v", a, b)
	}
	if s := FormatChurn(first); s == "" {
		t.Error("empty table")
	}
}

// TestChurnEngineRegimeSmoke runs the engine-regime arm at the size CI
// runs it: ChurnEngineRegime itself fails when the warm start's repair
// stops holding under two solves per step, the counters it reports must
// show the repair doing the seeding, and two runs must agree on every
// count.
func TestChurnEngineRegimeSmoke(t *testing.T) {
	cfg := ChurnConfig{Relations: 40, Steps: 8, MaxNodes: 2000}
	a, err := ChurnEngineRegime(cfg, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChurnEngineRegime(cfg, 24)
	if err != nil {
		t.Fatal(err)
	}
	s := a.Reopt
	if s.JointSolves != 2*uint64(cfg.Steps+1) {
		t.Errorf("%d joint solves for %d steps of two solves each plus priming", s.JointSolves, cfg.Steps)
	}
	if s.RepairsUnmatched != 2 || s.RepairsFeasible == 0 || s.SeededIncumbent == 0 {
		t.Errorf("repairs: %+v; want the two priming solves cold and the rest repaired", s)
	}
	a.WallNS, b.WallNS, a.CandNS, b.CandNS = 0, 0, 0, 0
	if a != b {
		t.Errorf("two runs disagree:\n%+v\n%+v", a, b)
	}
	if FormatChurnEngine([]ChurnEngineResult{a}) == "" || FormatReoptStats(nil, []ChurnEngineResult{a}) == "" {
		t.Error("empty table")
	}
}
