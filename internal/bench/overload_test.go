package bench

import "testing"

// TestOverloadSurvival pins the scenario's contract: under a shared
// memory budget a credit grant the stream cannot exhaust dies
// mid-stream (Fig. 8a), while both bounded-grant policies sustain ingest
// to the end — block losslessly, shed with counted drops.
func TestOverloadSurvival(t *testing.T) {
	results, err := OverloadSurvival(OverloadConfig{
		Tuples:           8000,
		MemoryLimitBytes: 256 << 10,
		OverheadLoops:    50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OverloadResult{}
	for _, r := range results {
		byName[r.Substrate] = r
	}
	unb, block, shed := byName["unbounded"], byName["flow-block"], byName["flow-shed"]
	if unb.Survived {
		t.Errorf("unexhaustible grant survived the budget — scenario too weak (peak queued %d)", unb.PeakQueued)
	}
	if !block.Survived || !shed.Survived {
		t.Fatalf("flow-controlled substrate died: block=%+v shed=%+v", block, shed)
	}
	if block.Ingested != 8000 || block.Shed != 0 {
		t.Errorf("flow-block should admit everything losslessly: ingested=%d shed=%d", block.Ingested, block.Shed)
	}
	if shed.Shed == 0 {
		t.Errorf("flow-shed dropped nothing under overload")
	}
	if shed.Ingested+shed.Shed != 8000 {
		t.Errorf("flow-shed accounting: ingested %d + shed %d != 8000", shed.Ingested, shed.Shed)
	}
	if unb.PeakQueued < 4*block.PeakQueued {
		t.Errorf("flow control did not bound queueing: unbounded peak %d vs flow peak %d", unb.PeakQueued, block.PeakQueued)
	}
	t.Logf("\n%s", FormatOverload(results))
}
