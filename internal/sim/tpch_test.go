package sim

import (
	"maps"
	"testing"
	"time"

	"clash/internal/runtime"
	"clash/internal/tpch"
)

// TestScheduleSweepTPCHStateRows runs the Fig. 7 stream — the TPC-H
// queries of Fig. 7 under one shared topology, SF 0.0002 — on the
// simulation substrate over the columnar and tiered rows of the state
// matrix, 8 schedule seeds each, and compares every query's results with
// one run on the synchronous substrate and the container store. The
// tiered row must demote epochs and answer probes from them. The first
// and last seed of each row run twice and must replay their schedule
// step for step. internal/runtime's
// TestSimScheduleEquivalenceTPCH sweeps the container row, 64 seeds.
func TestScheduleSweepTPCHStateRows(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	fx, err := tpch.NewFixture(tpch.Fig7Queries(), 0.0002, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := fx.SharedTopology()
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg runtime.Config, trace *Trace) (map[string]map[string]int, runtime.Snapshot) {
		t.Helper()
		cfg.Catalog = fx.Catalog
		if trace != nil {
			cfg.Sim.OnEvent = trace.Hook()
		}
		eng := runtime.New(cfg)
		defer eng.Stop()
		if err := eng.Install(topo, 0); err != nil {
			t.Fatal(err)
		}
		sinks := map[string]*runtime.CollectSink{}
		for _, q := range fx.Queries {
			sinks[q.Name] = runtime.NewCollectSink()
			eng.OnResult(q.Name, sinks[q.Name].Add)
		}
		for _, r := range fx.Records {
			if err := eng.Ingest(r.Relation, r.TS, r.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		out := map[string]map[string]int{}
		for name, s := range sinks {
			out[name] = s.Results()
		}
		return out, eng.Metrics().Snapshot()
	}

	oracle, _ := run(runtime.Config{Substrate: runtime.SubstrateSynchronous}, nil)
	total := 0
	for _, rs := range oracle {
		total += len(rs)
	}
	if total == 0 {
		t.Fatal("the synchronous oracle produced no results — sweep vacuous")
	}

	for _, row := range StateConfigs()[1:] {
		var demoted, cold int64
		for seed := 1; seed <= seeds; seed++ {
			cfg := runtime.Config{Substrate: runtime.SubstrateSim, StepMode: true,
				StateBackend: row.Backend, StateHotBytes: row.HotBytes,
				Sim: runtime.SimConfig{Seed: uint64(seed)}}
			if row.HotBytes > 0 {
				// A hot budget bites only with epochs to demote: the
				// stream spans one second of event time.
				cfg.EpochLength = 64 * time.Millisecond
			}
			trace := &Trace{}
			got, m := run(cfg, trace)
			for name, want := range oracle {
				if !maps.Equal(got[name], want) {
					t.Fatalf("%s seed %d: query %s deviates from the oracle", row.Name, seed, name)
				}
			}
			demoted += m.DemotedEpochs
			cold += m.ColdProbeHits
			if seed == 1 || seed == seeds {
				replay := &Trace{}
				run(cfg, replay)
				if at := trace.DivergesAt(replay); at >= 0 {
					t.Fatalf("%s seed %d: replay diverges at step %d:\n%s", row.Name, seed, at, trace.Format(at, 3))
				}
			}
		}
		if row.HotBytes > 0 {
			t.Logf("%s: %d epochs demoted, %d probes answered from cold epochs", row.Name, demoted, cold)
			if demoted == 0 || cold == 0 {
				t.Errorf("%s: %d epochs demoted, %d cold probe hits in %d seeds — the spill tier went untested", row.Name, demoted, cold, seeds)
			}
		}
	}
}
