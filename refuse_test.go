package clash

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestLossyConfigurationsRefused pins the one configuration the engine
// refuses: a query joining three or more relations on the flow or sim
// substrate without StepMode, which loses results. Every front door —
// Start, Recover and each NewCluster shard — refuses it, naming the two
// options that make it exact; those options, and two-way joins on flow,
// are accepted.
func TestLossyConfigurationsRefused(t *testing.T) {
	const chain = "q1: R(a) S(a,b) T(b)"
	start := func(cfg Config) error {
		eng, err := Start(cfg)
		if err == nil {
			eng.Stop()
		}
		return err
	}
	recov := func(cfg Config) error {
		cfg.WAL = &WALConfig{Storage: NewMemWALStorage()}
		eng, _, err := Recover(cfg)
		if err == nil {
			eng.Stop()
		}
		return err
	}
	cluster := func(cfg Config) error {
		cl, err := NewCluster(ClusterConfig{Shards: 2, Engine: cfg})
		if err == nil {
			cl.Stop()
		}
		return err
	}
	for _, row := range []struct {
		name    string
		open    func(Config) error
		cfg     Config
		refused bool
	}{
		{"default substrate, three-way", start, Config{Workload: chain}, true},
		{"flow, three-way", start, Config{Workload: chain, Substrate: SubstrateFlow}, true},
		{"sim, three-way", start, Config{Workload: chain, Substrate: SubstrateSim}, true},
		{"flow, three-way, Recover", recov, Config{Workload: chain, Substrate: SubstrateFlow}, true},
		{"flow, three-way, NewCluster", cluster, Config{Workload: chain, Substrate: SubstrateFlow}, true},
		{"flow, three-way, StepMode", start, Config{Workload: chain, Substrate: SubstrateFlow, StepMode: true}, false},
		{"sim, three-way, StepMode", start, Config{Workload: chain, Substrate: SubstrateSim, StepMode: true}, false},
		{"three-way, Synchronous", start, Config{Workload: chain, Synchronous: true}, false},
		{"flow, two-way, cluster-paced's shape", cluster, Config{
			Workload:     "q1: R(a) S(a)\nq2: S(a) T(a)",
			Substrate:    SubstrateFlow,
			Flow:         FlowConfig{Workers: 1},
			StateBackend: BackendColumnar,
			EpochLength:  100,
		}, false},
	} {
		err := row.open(row.cfg)
		switch {
		case !row.refused && err != nil:
			t.Errorf("%s: refused: %v", row.name, err)
		case row.refused && err == nil:
			t.Errorf("%s: accepted, but it loses results", row.name)
		case row.refused && !(strings.Contains(err.Error(), "Synchronous") && strings.Contains(err.Error(), "StepMode")):
			t.Errorf("%s: the refusal does not name Synchronous and StepMode: %v", row.name, err)
		}
	}
}

// TestAddQueryRefusesLossyQuery: a three-way query added to a two-way
// engine on the flow substrate is refused, is not registered, and the
// engine keeps serving the queries it has.
func TestAddQueryRefusesLossyQuery(t *testing.T) {
	eng, err := Start(Config{Workload: "q1: R(a) S(a,b)\nq9: S(b) T(b)", EpochLength: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	var results atomic.Int64
	eng.OnResult("q1", func(*Tuple) { results.Add(1) })

	q2, _, err := ParseQuery("q2: R(a) S(a,b) T(b)")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery(q2); err == nil || !strings.Contains(err.Error(), "StepMode") {
		t.Fatalf("AddQuery of a three-way query on flow returned %v, want a refusal", err)
	}
	if err := eng.RemoveQuery("q2"); err == nil {
		t.Fatal("the refused query was registered")
	}
	for i := 0; i < 300; i++ {
		k := Int(int64(i % 3))
		if err := eng.Ingest("R", Time(2*i), k); err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest("S", Time(2*i+1), k, k); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	if err := eng.Failure(); err != nil {
		t.Fatal(err)
	}
	if results.Load() == 0 {
		t.Fatal("q1 produced no results after the refusal")
	}
	for _, d := range eng.Plan().Selected {
		if d.Query.Name == "q2" {
			t.Fatalf("the installed plan serves the refused query: %s", d)
		}
	}
}
