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
	if a != b {
		t.Errorf("two runs disagree:\n%+v\n%+v", a, b)
	}
	if s := FormatChurn(first); s == "" {
		t.Error("empty table")
	}
}
