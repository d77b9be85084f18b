package recovery_test

// Store retirement × crash recovery: adaptive rewiring retires stores
// that left every installed configuration, releasing their state. The
// checkpoint chain must follow — the first checkpoint after a rewiring
// tombstones the retired segments (a checkpoint drops every chain
// segment of a store its record does not pin), and a crash after that
// checkpoint recovers into the slimmed topology. A crash in the window between the rewiring and that
// checkpoint leaves retired segments in the chain with no engine task
// to receive them; Recover detects them, loads the live segments,
// skips the departed relations' WAL records as foreign, and takes a
// reconciling checkpoint that tombstones the stale segments — no
// manual fallback. ErrStaleChain remains only for chains that match
// the installed topology nowhere at all (wrong workload or storage).

import (
	"errors"
	"testing"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/recovery"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// buildShared parses a workload and compiles its shared topology.
func buildShared(t testing.TB, workload string) ([]*query.Query, *query.Catalog, *topology.Config) {
	t.Helper()
	qs, cat, err := query.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimates(0.1)
	for _, r := range cat.Names() {
		est.SetRate(r, 100)
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

// ingestQuad sends n tuples round-robin over the relations with a small
// key universe (coprime to the relation count, so every pair of
// relations shares keys) — both queries materialize state and produce
// results.
func ingestQuad(t *testing.T, eng *runtime.Engine, rels []string, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		rel := rels[i%len(rels)]
		if err := eng.Ingest(rel, tuple.Time(i+1), tuple.IntValue(int64(i%3))); err != nil {
			t.Fatalf("ingest %s @%d: %v", rel, i+1, err)
		}
	}
}

// retireCrashScenario runs life 1 — both queries, checkpoint, rewire to
// q1 only (retiring q2's stores), optionally checkpoint again — then
// crashes and returns the storage plus the stream position reached.
func retireCrashScenario(t *testing.T, ckptAfterRetire bool) (*recovery.MemStorage, int) {
	t.Helper()
	st := recovery.NewMemStorage()
	mgr, err := recovery.NewManager(st, recovery.Config{CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	qs, cat, topoA := buildShared(t, "q1: R(a) S(a)\nq2: T(b) U(b)")
	_, _, topoB := buildShared(t, "q1: R(a) S(a)")
	eng := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
	defer eng.Stop()
	eng.SetJournal(mgr)
	mgr.Bind(eng)
	if err := eng.Install(topoA, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		eng.OnResult(q.Name, func(*tuple.Tuple) {})
	}

	all := []string{"R", "S", "T", "U"}
	ingestQuad(t, eng, all, 0, 80)
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestQuad(t, eng, all, 80, 20)

	// Rewire: q2 expires, its stores leave every installed configuration
	// and retire (the adaptive controller's RemoveQuery path).
	if err := eng.Install(topoB, 0); err != nil {
		t.Fatal(err)
	}
	if eng.Metrics().Snapshot().RetiredTuples == 0 {
		t.Fatal("rewiring retired no state — scenario vacuous")
	}
	if ckptAfterRetire {
		if err := mgr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	pos := 100
	ingestQuad(t, eng, []string{"R", "S"}, pos, 20)
	pos += 20
	// Crash: abandon the engine without Stop or Close; storage survives.
	return st, pos
}

// TestRetireThenCheckpointRecover: the first checkpoint after a rewiring
// tombstones the retired stores' segments, so a crash after it recovers
// into an engine holding only the surviving topology — no stale
// segments, and the surviving query keeps answering.
func TestRetireThenCheckpointRecover(t *testing.T) {
	st, pos := retireCrashScenario(t, true)

	qs, cat, topoB := buildShared(t, "q1: R(a) S(a)")
	eng2 := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
	defer eng2.Stop()
	if err := eng2.Install(topoB, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		eng2.OnResult(q.Name, func(*tuple.Tuple) {})
	}
	mgr2, rstats, err := recovery.Recover(st, eng2, recovery.Config{CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatalf("recovery into the post-rewiring topology failed: %v", err)
	}
	defer func() {
		if err := mgr2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if rstats.RestoredTuples == 0 {
		t.Fatal("checkpoint chain restored nothing — test vacuous")
	}
	// Only the surviving topology's stores hold state.
	for _, g := range eng2.TaskGauges() {
		if topoB.Stores[g.Store] == nil && g.Stored != 0 {
			t.Errorf("retired store %s restored %d tuples in partition %d", g.Store, g.Stored, g.Part)
		}
	}
	// The surviving query still answers over its recovered state.
	before := eng2.Metrics().Snapshot().Results
	ingestQuad(t, eng2, []string{"R", "S"}, pos, 20)
	eng2.Drain()
	if eng2.Metrics().Snapshot().Results <= before {
		t.Error("q1 produced no results after recovery")
	}
}

// TestRetireCrashBeforeCheckpointFailsClosed: a crash in the window
// between a rewiring and its next checkpoint leaves retired segments in
// the chain. Recovering into the slimmed topology must now succeed
// without the old manual fallback: live segments load, stale ones are
// skipped, WAL records of the departed relations replay as foreign
// no-ops, and the reconciling checkpoint tombstones the stale segments
// so the next recovery sees a clean chain. (The name is kept from the
// fail-closed era so the scenario's history stays greppable.)
func TestRetireCrashBeforeCheckpointFailsClosed(t *testing.T) {
	st, pos := retireCrashScenario(t, false)

	qs, cat, topoB := buildShared(t, "q1: R(a) S(a)")
	eng2 := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
	defer eng2.Stop()
	if err := eng2.Install(topoB, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		eng2.OnResult(q.Name, func(*tuple.Tuple) {})
	}
	mgr2, rstats, err := recovery.Recover(st, eng2, recovery.Config{CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatalf("automated stale-chain recovery failed: %v", err)
	}
	if rstats.StaleSegments == 0 {
		t.Fatal("chain had no stale segments — scenario vacuous")
	}
	if rstats.ForeignIngests == 0 {
		t.Fatal("replay skipped no foreign ingests — scenario vacuous")
	}
	if rstats.RestoredTuples == 0 {
		t.Fatal("recovery restored nothing — scenario vacuous")
	}
	// Only the surviving topology's stores hold state.
	for _, g := range eng2.TaskGauges() {
		if topoB.Stores[g.Store] == nil && g.Stored != 0 {
			t.Errorf("retired store %s restored %d tuples in partition %d", g.Store, g.Stored, g.Part)
		}
	}
	// The surviving query keeps answering over its recovered state.
	before := eng2.Metrics().Snapshot().Results
	ingestQuad(t, eng2, []string{"R", "S"}, pos, 20)
	eng2.Drain()
	if eng2.Metrics().Snapshot().Results <= before {
		t.Error("q1 produced no results after recovery")
	}

	// The reconciling checkpoint closed the loop: a second crash right
	// here recovers with nothing stale and nothing foreign.
	_ = mgr2 // crash: abandon without Close
	qs3, cat3, topoB3 := buildShared(t, "q1: R(a) S(a)")
	eng3 := runtime.New(runtime.Config{Catalog: cat3, Substrate: runtime.SubstrateSynchronous})
	defer eng3.Stop()
	if err := eng3.Install(topoB3, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs3 {
		eng3.OnResult(q.Name, func(*tuple.Tuple) {})
	}
	mgr3, rstats3, err := recovery.Recover(st, eng3, recovery.Config{CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	if rstats3.StaleSegments != 0 || rstats3.ForeignIngests != 0 {
		t.Errorf("second recovery saw %d stale segments and %d foreign ingests after reconciliation, want 0/0",
			rstats3.StaleSegments, rstats3.ForeignIngests)
	}
	if err := mgr3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverUnknownWorkloadFailsClosed: ErrStaleChain still guards the
// genuinely wrong case — a chain whose segments match the installed
// topology nowhere (recovering the wrong workload over real storage
// must never silently discard all state).
func TestRecoverUnknownWorkloadFailsClosed(t *testing.T) {
	st, _ := retireCrashScenario(t, false)

	_, cat, topoX := buildShared(t, "q9: X(z) Y(z)")
	engX := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
	defer engX.Stop()
	if err := engX.Install(topoX, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := recovery.Recover(st, engX, recovery.Config{CheckpointEvery: 1 << 30})
	if !errors.Is(err, recovery.ErrStaleChain) {
		t.Fatalf("recovery under an unrelated workload returned %v, want ErrStaleChain", err)
	}
}

// TestReintroducedStoreDropsOldSegments: a store retired and introduced
// again between two checkpoints starts empty on fresh tasks, so the
// second checkpoint must tombstone every segment the old tasks left in
// the chain that the new ones do not rewrite. Recovering right after it
// restores exactly the state the crashed engine held, task by task.
func TestReintroducedStoreDropsOldSegments(t *testing.T) {
	st := recovery.NewMemStorage()
	mgr, err := recovery.NewManager(st, recovery.Config{CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	qs, cat, topoA := buildShared(t, "q1: R(a) S(a)\nq2: T(b) U(b)")
	_, _, topoB := buildShared(t, "q1: R(a) S(a)")
	cfg := runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous, EpochLength: 10}
	eng := runtime.New(cfg)
	defer eng.Stop()
	eng.SetJournal(mgr)
	mgr.Bind(eng)
	if err := eng.Install(topoA, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		eng.OnResult(q.Name, func(*tuple.Tuple) {})
	}
	all := []string{"R", "S", "T", "U"}
	ingestQuad(t, eng, all, 0, 80)
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// q2 leaves and comes back: its stores are retired, then born anew.
	for _, topo := range []*topology.Config{topoB, topoA} {
		if err := eng.Install(topo, 0); err != nil {
			t.Fatal(err)
		}
	}
	ingestQuad(t, eng, all, 80, 20)
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := eng.TaskGauges()

	eng2 := runtime.New(cfg)
	defer eng2.Stop()
	if err := eng2.Install(topoA, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		eng2.OnResult(q.Name, func(*tuple.Tuple) {})
	}
	if _, _, err := recovery.Recover(st, eng2, recovery.Config{CheckpointEvery: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	got := eng2.TaskGauges()
	if len(got) != len(want) {
		t.Fatalf("recovered engine has %d tasks, crashed one %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Store != want[i].Store || got[i].Part != want[i].Part || got[i].Stored != want[i].Stored {
			t.Errorf("task %s/%d recovered %d tuples, the crashed engine held %d", got[i].Store, got[i].Part, got[i].Stored, want[i].Stored)
		}
	}
}
