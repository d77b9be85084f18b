package bench

import (
	"testing"

	"clash/internal/runtime"
)

// TestFig7ExecutionModes cross-checks the two engine substrates on the
// Fig. 7 workload: synchronous execution must produce identical result
// multisets for every strategy (exact semantics), and free-running
// asynchronous execution must never exceed them per query (probes racing
// ahead of MIR feeding chains can only lose pairs, never duplicate them
// — the seq ordering assigns each pair to exactly one probe direction).
func TestFig7ExecutionModes(t *testing.T) {
	testFig7ExecutionModes(t, fig7Five)
}

// TestFig7TenQueryModes runs the same cross-check on the ten-query
// workload, whose type-compatible junk joins merge attribute classes
// across queries — the regression that exposed unsound class-based
// partition routing (see DESIGN.md §6, deviation 11).
func TestFig7TenQueryModes(t *testing.T) {
	testFig7ExecutionModes(t, fig7Ten)
}

func testFig7ExecutionModes(t *testing.T, built func() (*fig7Setup, error)) {
	setup, err := built()
	if err != nil {
		t.Fatal(err)
	}

	run := func(s Strategy, substrate runtime.SubstrateKind) map[string]int64 {
		topo, err := setup.topology(s)
		if err != nil {
			t.Fatal(err)
		}
		eng := runtime.New(runtime.Config{Catalog: setup.Catalog, Substrate: substrate})
		if err := eng.Install(topo, 0); err != nil {
			t.Fatal(err)
		}
		defer eng.Stop()
		for _, r := range setup.Records {
			if err := eng.Ingest(r.Relation, r.TS, r.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		return eng.Metrics().Snapshot().ByQuery
	}

	var exact map[string]int64
	for _, s := range Strategies() {
		sync := run(s, runtime.SubstrateSynchronous)
		if exact == nil {
			exact = sync
		} else {
			for q, n := range exact {
				if sync[q] != n {
					t.Errorf("%s sync: query %s produced %d results, want %d", s, q, sync[q], n)
				}
			}
		}
		async := run(s, runtime.SubstrateFlow)
		for q, n := range async {
			if n > exact[q] {
				t.Errorf("%s async: query %s produced %d results, exact count is %d (duplicates?)", s, q, n, exact[q])
			}
		}
	}
}
