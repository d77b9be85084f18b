package main

import (
	"testing"

	"clash/internal/bench"
	"clash/internal/tpch"
)

// TestRunMatchesFig7 runs every clash-run strategy on the ten-query
// Fig. 7 workload, whose multi-hop probe chains an asynchronous engine
// would race, and checks that each reports exactly the result count and
// probe tuples of clash-bench's row for that strategy at the same scale
// factor, seed and parallelism.
func TestRunMatchesFig7(t *testing.T) {
	cfg := bench.Fig7Config{SF: 0.0005, NumQueries: 10, Parallelism: 2, Seed: 42}
	rows, err := bench.Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(bench.Strategies()) {
		t.Fatalf("Fig. 7 printed %d rows for %d strategies", len(rows), len(bench.Strategies()))
	}

	fx, err := tpch.NewFixture(tpch.Fig7TenQueries(), cfg.SF, cfg.Seed, cfg.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range rows {
		if want.Results <= 0 {
			t.Fatalf("Fig. 7 %s row reports %d results — test vacuous", want.Strategy, want.Results)
		}
		_, topo, err := deploy(fx, want.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := bench.RunStrategy(fx, want.Strategy, topo)
		if err != nil {
			t.Fatal(err)
		}
		if m.Results != want.Results || m.ProbeSent != want.ProbeTuples {
			t.Errorf("clash-run -strategy %s reports %d results and %d probe tuples, clash-bench -fig 7's row %d and %d",
				want.Strategy, m.Results, m.ProbeSent, want.Results, want.ProbeTuples)
		}
	}
}
