package bench

import (
	"testing"

	"clash/internal/sim"
)

// TestSimSweepSmoke runs a short seed matrix end to end: every seed
// must match the oracle, replays must be trace-identical, and the
// injected-fault scenario must reproduce from its seed.
func TestSimSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke is covered by the sim-sweep CI job")
	}
	res, err := SimSweep(SimSweepConfig{Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 4 {
		t.Errorf("swept %d seeds, want 4", res.Seeds)
	}
	if res.OracleResults == 0 {
		t.Error("oracle produced no results — sweep vacuous")
	}
	if res.DistinctSchedules < 2 {
		t.Errorf("only %d distinct schedules across 4 seeds", res.DistinctSchedules)
	}
	if res.ReplaysChecked == 0 {
		t.Error("no replays verified")
	}
	if !res.FaultReplayedOK || res.FaultStalls == 0 {
		t.Errorf("fault scenario not reproduced: stalls=%d replayed=%v", res.FaultStalls, res.FaultReplayedOK)
	}
}

// TestParseBackend pins the -backend contract of -fig simsweep: the
// empty value is the container row, names match any case, and anything
// else is an error.
func TestParseBackend(t *testing.T) {
	rows := sim.StateConfigs()
	for _, tc := range []struct {
		name string
		want StateConfig
	}{
		{"", rows[0]},
		{"container", rows[0]},
		{"Columnar", rows[1]},
		{"TIERED", rows[2]},
	} {
		row, err := ParseBackend(tc.name)
		if err != nil {
			t.Errorf("-backend %q: %v", tc.name, err)
			continue
		}
		if row != tc.want {
			t.Errorf("-backend %q selects %+v, want %+v", tc.name, row, tc.want)
		}
	}
	if row, err := ParseBackend("longstat"); err == nil {
		t.Errorf("-backend longstat accepted (selects %+v), want an error", row)
	}
}
