package main

import (
	"testing"

	"clash/internal/bench"
	"clash/internal/tpch"
)

// TestRunMatchesFig7 runs clash-run's default strategy (cmqo) on the
// ten-query Fig. 7 workload, whose multi-hop probe chains an
// asynchronous engine would race, and checks that it reports exactly
// the result count of clash-bench's CMQO row for the same scale factor,
// seed and parallelism.
func TestRunMatchesFig7(t *testing.T) {
	cfg := bench.Fig7Config{SF: 0.0005, NumQueries: 10, Parallelism: 2, Seed: 42}
	rows, err := bench.Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want int64 = -1
	for _, r := range rows {
		if r.Strategy == bench.CLASHMQO {
			want = r.Results
		}
	}
	if want <= 0 {
		t.Fatalf("Fig. 7 CMQO row reports %d results — test vacuous", want)
	}

	fx, err := tpch.NewFixture(tpch.Fig7TenQueries(), cfg.SF, cfg.Seed, cfg.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fx.Joint()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := fx.Compile(true, plan)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := run(fx, topo)
	if err != nil {
		t.Fatal(err)
	}
	if m.Results != want {
		t.Errorf("clash-run reports %d results, clash-bench -fig 7's CMQO row %d", m.Results, want)
	}
}
