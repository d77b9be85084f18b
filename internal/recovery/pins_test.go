package recovery_test

// Pinned-routing persistence across crashes (the split-key divergence
// bug): split-key sets are pinned at first sight during Install from
// whatever estimates the caller optimized with. A crashed run's state
// layout reflects ITS pins — hot-key tuples spread over two candidate
// tasks — so a recovering engine whose caller optimized with different
// (say, degree-free) estimates would pin no split keys, probe only the
// plain hash candidate, miss the restored hot tuples on the other one,
// and silently lose results. Checkpoint records and snapshots persist
// the pin table; Recover and Restore re-impose it before loading state.

import (
	"bytes"
	"testing"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/recovery"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// buildSplitTopo compiles "q1: R(a) S(a)" with parallelism 2, either
// from degree estimates naming key 0 a heavy hitter (split keys in the
// topology) or from flat rate-only estimates (plain hash routing).
func buildSplitTopo(t *testing.T, withDegrees bool) ([]*query.Query, *query.Catalog, *topology.Config) {
	t.Helper()
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimates(0.1)
	for _, r := range cat.Names() {
		est.SetRate(r, 100)
		if withDegrees {
			est.SetDegree(r+".a", &stats.AttrDegrees{
				Count:    100000,
				Distinct: 14,
				Top:      []stats.HeavyHitter{{Hash: tuple.IntValue(0).Hash(), Count: 75000}},
			})
		}
	}
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 2}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	return qs, cat, topo
}

// hotStream skews three quarters of the tuples onto key 0 (the declared
// heavy hitter), alternating R and S.
func hotStream(n int) []runtime.Ingestion {
	out := make([]runtime.Ingestion, 0, n)
	rels := []string{"R", "S"}
	for i := 0; i < n; i++ {
		key := int64(0)
		if i%4 == 3 {
			key = int64(i % 13)
		}
		out = append(out, runtime.Ingestion{
			Rel:  rels[i%2],
			TS:   tuple.Time(i + 1),
			Vals: []tuple.Value{tuple.IntValue(key)},
		})
	}
	return out
}

// splitOracle runs the whole stream uninterrupted on the split topology
// and returns its results.
func splitOracle(t *testing.T, cat *query.Catalog, topo *topology.Config, ins []runtime.Ingestion) map[string]int {
	t.Helper()
	eng := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
	defer eng.Stop()
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	sink := runtime.NewCollectSink()
	eng.OnResult("q1", sink.Add)
	for _, in := range ins {
		if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	return sink.Results()
}

// TestSnapshotRestoresSplitPins: the snapshot path carries the pin table
// too. Checkpoint a run whose topology split the hot key over two
// candidate tasks, restore the snapshot into an engine built from
// degree-FREE estimates, and resume: the restored pins must route the
// resumed probes to both candidates, so the results of the two lives
// together match the uninterrupted oracle exactly.
func TestSnapshotRestoresSplitPins(t *testing.T) {
	const total, snapAt = 200, 120
	ins := hotStream(total)
	_, cat, topoSplit := buildSplitTopo(t, true)
	want := splitOracle(t, cat, topoSplit, ins)

	eng1 := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
	defer eng1.Stop()
	if err := eng1.Install(topoSplit, 0); err != nil {
		t.Fatal(err)
	}
	s1 := runtime.NewCollectSink()
	eng1.OnResult("q1", s1.Add)
	for _, in := range ins[:snapAt] {
		if err := eng1.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := eng1.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}

	_, cat2, topoUniform := buildSplitTopo(t, false)
	eng2 := runtime.New(runtime.Config{Catalog: cat2, Substrate: runtime.SubstrateSynchronous})
	defer eng2.Stop()
	if err := eng2.Install(topoUniform, 0); err != nil {
		t.Fatal(err)
	}
	s2 := runtime.NewCollectSink()
	eng2.OnResult("q1", s2.Add)
	if err := eng2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	for _, in := range ins[snapAt:] {
		if err := eng2.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	eng2.Drain()

	merged := s1.Results()
	for k, v := range s2.Results() {
		merged[k] += v
	}
	got, wantN := 0, 0
	for _, n := range merged {
		got += n
	}
	for _, n := range want {
		wantN += n
	}
	if got != wantN || len(merged) != len(want) {
		t.Fatalf("%d results (%d distinct) after snapshot restore, oracle %d (%d distinct) — split pins lost", got, len(merged), wantN, len(want))
	}
	for k, n := range want {
		if merged[k] != n {
			t.Fatalf("result %q count %d after snapshot restore, oracle %d", k, merged[k], n)
		}
	}
}

// TestRecoverRestoresSplitPins: crash a run whose topology split the
// hot key over two candidate tasks, then recover with an engine built
// from degree-FREE estimates (no split keys of its own). The persisted
// pin table must re-impose the crashed run's split routing — replayed
// and resumed probes visit both candidates — so the committed output
// union exactly matches the uninterrupted oracle.
func TestRecoverRestoresSplitPins(t *testing.T) {
	const total, crashAt = 200, 160
	ins := hotStream(total)

	_, cat, topoSplit := buildSplitTopo(t, true)
	nSplit := 0
	for _, s := range topoSplit.Stores {
		nSplit += len(s.SplitKeys)
	}
	if nSplit == 0 {
		t.Fatal("degree estimates produced no split keys — scenario vacuous")
	}

	// Uninterrupted oracle over the split topology.
	oracleEng := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
	defer oracleEng.Stop()
	if err := oracleEng.Install(topoSplit, 0); err != nil {
		t.Fatal(err)
	}
	oracleSink := runtime.NewCollectSink()
	oracleEng.OnResult("q1", oracleSink.Add)
	for _, in := range ins {
		if err := oracleEng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	oracleEng.Drain()

	// First life: journaled engine on the split topology, one explicit
	// mid-stream checkpoint, then a crash with uncommitted suffix.
	st := recovery.NewMemStorage()
	rcfg := recovery.Config{CheckpointEvery: 1 << 30}
	mgr, err := recovery.NewManager(st, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
	defer eng1.Stop()
	eng1.SetJournal(mgr)
	mgr.Bind(eng1)
	if err := eng1.Install(topoSplit, 0); err != nil {
		t.Fatal(err)
	}
	s1 := recovery.NewCommittedSink()
	eng1.OnResult("q1", s1.Add)
	mgr.OnCommit(s1.Commit)
	for _, in := range ins[:120] {
		if err := eng1.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, in := range ins[120:crashAt] {
		if err := eng1.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	// Vacuity: the split actually spread state — every store holds
	// tuples on both candidate partitions by crash time.
	for _, g := range eng1.TaskGauges() {
		if g.Stored == 0 {
			t.Fatalf("store %s partition %d empty at crash time — hot key did not spread", g.Store, g.Part)
		}
	}
	// Crash: abandon eng1; storage survives.

	// Second life: built from degree-free estimates — without the
	// persisted pins this engine would pin empty split sets and probe
	// only the plain hash candidate.
	_, cat2, topoUniform := buildSplitTopo(t, false)
	for _, s := range topoUniform.Stores {
		if len(s.SplitKeys) != 0 {
			t.Fatal("flat estimates produced split keys — control topology invalid")
		}
	}
	eng2 := runtime.New(runtime.Config{Catalog: cat2, Substrate: runtime.SubstrateSynchronous})
	defer eng2.Stop()
	if err := eng2.Install(topoUniform, 0); err != nil {
		t.Fatal(err)
	}
	s2 := recovery.NewCommittedSink()
	eng2.OnResult("q1", s2.Add)
	mgr2, rstats, err := recovery.Recover(st, eng2, rcfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	mgr2.OnCommit(s2.Commit)
	if rstats.RestoredTuples == 0 || rstats.ReplayedIngests == 0 {
		t.Fatalf("recovery restored %d tuples, replayed %d ingests — scenario vacuous",
			rstats.RestoredTuples, rstats.ReplayedIngests)
	}
	for _, in := range ins[rstats.LastSeq:] {
		if err := eng2.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	eng2.Drain()
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}

	merged := map[string]int{}
	for k, v := range s1.Committed() {
		merged[k] += v
	}
	for k, v := range s2.Committed() {
		merged[k] += v
	}
	want := oracleSink.Results()
	if len(merged) != len(want) {
		t.Fatalf("%d distinct recovered results, oracle has %d", len(merged), len(want))
	}
	for k, n := range want {
		if merged[k] != n {
			t.Fatalf("result %q count %d after recovery, oracle %d — split-pin restore diverged", k, merged[k], n)
		}
	}
}
