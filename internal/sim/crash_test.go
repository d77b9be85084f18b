package sim

import (
	"bytes"
	"testing"

	"clash/internal/core"
	"clash/internal/recovery"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// crashBase is the shared crash scenario: the multi-query workload of
// sim_test with a shorter stream (each crash run executes an oracle
// plus two engine lives).
func crashBase() CrashScenario {
	sc := base()
	sc.Stream.Tuples = 200
	return CrashScenario{Scenario: sc}
}

// TestCrashRecoveryBasic: one crash mid-stream — committed results plus
// recovered results equal the uninterrupted run, and the recovery
// actually exercised both the checkpoint path and the replay path.
func TestCrashRecoveryBasic(t *testing.T) {
	cs := crashBase()
	// 23 does not divide the default crash point (half the stream), so
	// the crash always strands a WAL suffix past the last checkpoint.
	cs.CheckpointEvery = 23
	res, err := cs.RunWithRecovery()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
	if res.Oracle.TotalResults() == 0 {
		t.Fatal("oracle produced no results — test vacuous")
	}
	if res.Stats.CheckpointRecords == 0 {
		t.Error("no checkpoint records used — incremental-checkpoint path untested")
	}
	if res.Stats.RestoredTuples == 0 {
		t.Error("no tuples restored from the checkpoint chain")
	}
	if res.Stats.ReplayedIngests == 0 {
		t.Error("no WAL records replayed — replay path untested")
	}
	if res.Stats.SkippedIngests == 0 {
		t.Error("no WAL records skipped — anchor-based dedup untested")
	}
	if res.Stats.EvictMismatches != 0 {
		t.Errorf("%d evict mismatches on a deterministic replay", res.Stats.EvictMismatches)
	}
}

// TestCrashRecoveryCrashBeforeFirstCheckpoint: a crash before any
// checkpoint recovers purely by WAL replay from an empty anchor.
func TestCrashRecoveryCrashBeforeFirstCheckpoint(t *testing.T) {
	cs := crashBase()
	cs.CheckpointEvery = 1000 // never reached
	cs.CrashAfter = 40
	res, err := cs.RunWithRecovery()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.CheckpointRecords != 0 {
		t.Errorf("expected 0 checkpoint records, used %d", res.Stats.CheckpointRecords)
	}
	if res.Stats.ReplayedIngests != 40 {
		t.Errorf("replayed %d ingests, want 40", res.Stats.ReplayedIngests)
	}
}

// TestCrashRecoveryTornWrite: seeds where the crash also tears the
// unsynced WAL tail. Recovery truncates to the valid frame prefix and
// re-reads the lost tuples from the source; at least one seed must
// actually observe a torn tail or the fault injection is vacuous.
func TestCrashRecoveryTornWrite(t *testing.T) {
	torn := 0
	for seed := uint64(1); seed <= 6; seed++ {
		cs := crashBase()
		cs.Seed = seed
		cs.CheckpointEvery = 23
		cs.Torn = &TornWrite{DropMax: 60}
		res, err := cs.RunWithRecovery()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.VerifyExactlyOnce(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Stats.TornWALBytes > 0 {
			torn++
		}
	}
	if torn == 0 {
		t.Error("no seed produced a torn (mid-frame) WAL tail — TornWrite injection vacuous")
	}
}

// TestCrashRecoveryTaskPanic: the crash-recovery property holds while
// the supervisor is absorbing injected task panics on both engine
// lives. The oracle run is equally faulted, so this also re-checks that
// supervised restarts preserve exactness.
func TestCrashRecoveryTaskPanic(t *testing.T) {
	cs := crashBase()
	cs.Faults = []Fault{TaskPanic{Part: -1, Every: 11, Until: 400}}
	res, err := cs.RunWithRecovery()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyExactlyOnce(); err != nil {
		t.Fatal(err)
	}
	if res.Oracle.Metrics.RecoveredPanics == 0 {
		t.Error("no panics recovered in the oracle run — TaskPanic injection vacuous")
	}
}

// TestCrashSweep is the acceptance sweep: 64 seeds x 3 state
// configurations (container, columnar, and columnar with its spill
// tier), 192 runs, crash point varying with the seed, with TaskPanic and
// TornWrite active and a checkpoint every 23 ingests — every run's
// recovered output must byte-match its oracle.
func TestCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	base := crashBase()
	base.Stream.Seed = 0 // per-seed streams
	base.CheckpointEvery = 23
	base.Faults = []Fault{TaskPanic{Part: -1, Every: 13, Until: 300}}
	base.Torn = &TornWrite{DropMax: 48}
	runs, err := CrashSweep(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 192 {
		t.Errorf("verified %d runs, want 192 (64 seeds x 3 backends)", runs)
	}
}

// TestCrashAtEveryWALRecordBoundary truncates the WAL at every record
// boundary of a journaled run — every state a crash-plus-torn-tail can
// leave the log in — and verifies, for each, that the recovered engine
// is byte-identical (via the engine's own snapshot format) to a fresh
// engine fed the same operation prefix directly. Prune records are
// interleaved so the sweep crosses non-ingest boundaries too.
func TestCrashAtEveryWALRecordBoundary(t *testing.T) {
	sc := base()
	sc.Stream.Tuples = 60

	// Journaled reference run recording the operation sequence.
	type op struct {
		in    *runtime.Ingestion
		prune int64 // prune cut when in == nil
	}
	var ops []op
	st := recovery.NewMemStorage()
	rcfg := recovery.Config{CheckpointEvery: 10}
	mgr, err := recovery.NewManager(st, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, cat, topo, err := sc.build()
	if err != nil {
		t.Fatal(err)
	}
	eng := runtime.New(sc.engineConfig(cat, 0, nil))
	defer eng.Stop()
	eng.SetJournal(mgr)
	mgr.Bind(eng)
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	ins := generateStream(cat, sc.Stream)
	for i := range ins {
		in := ins[i]
		if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op{in: &in})
		if err := mgr.MaybeCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if i%17 == 16 {
			cut := int64(in.TS) - int64(sc.Window)
			eng.PruneBefore(tuple.Time(cut))
			ops = append(ops, op{prune: cut})
		}
	}
	eng.Drain()

	wal, err := st.Load(recovery.StreamWAL)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := st.Load(recovery.StreamCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	bounds := append([]int64{0}, recovery.FrameEnds(wal)...)
	if len(bounds) != len(ops)+1 {
		t.Fatalf("%d WAL records for %d operations", len(bounds)-1, len(ops))
	}

	for k, p := range bounds {
		// Crash state: WAL truncated at boundary k, checkpoint stream
		// intact (Recover discards records anchored past the tear).
		st2 := recovery.NewMemStorage()
		if err := st2.Append(recovery.StreamWAL, wal[:p]); err != nil {
			t.Fatal(err)
		}
		if err := st2.Append(recovery.StreamCheckpoint, ckpt); err != nil {
			t.Fatal(err)
		}
		_, cat2, topo2, err := sc.build()
		if err != nil {
			t.Fatal(err)
		}
		eng2 := runtime.New(sc.engineConfig(cat2, 0, nil))
		if err := eng2.Install(topo2, 0); err != nil {
			t.Fatal(err)
		}
		_, stats, err := recovery.Recover(st2, eng2, rcfg)
		if err != nil {
			t.Fatalf("boundary %d (offset %d): %v", k, p, err)
		}
		eng2.Drain()

		// Reference: the same operation prefix applied directly.
		_, cat3, topo3, err := sc.build()
		if err != nil {
			t.Fatal(err)
		}
		eng3 := runtime.New(sc.engineConfig(cat3, 0, nil))
		if err := eng3.Install(topo3, 0); err != nil {
			t.Fatal(err)
		}
		wantSeq := uint64(0)
		for _, o := range ops[:k] {
			if o.in != nil {
				if err := eng3.Ingest(o.in.Rel, o.in.TS, o.in.Vals...); err != nil {
					t.Fatal(err)
				}
				wantSeq++
			} else {
				eng3.PruneBefore(tuple.Time(o.prune))
			}
		}
		eng3.Drain()
		if stats.LastSeq != wantSeq {
			t.Errorf("boundary %d: recovered seq %d, want %d", k, stats.LastSeq, wantSeq)
		}

		var got, want bytes.Buffer
		if err := eng2.Checkpoint(&got); err != nil {
			t.Fatal(err)
		}
		if err := eng3.Checkpoint(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("boundary %d (offset %d, seq %d): recovered state diverges from direct prefix (%d vs %d snapshot bytes)",
				k, p, stats.LastSeq, got.Len(), want.Len())
		}
		eng2.Stop()
		eng3.Stop()
	}
}

// TestCrashSweepSplitKeys: the crash sweep with split keys active — the
// topology is optimized from degree estimates declaring key 0 a heavy
// hitter, so every run crashes and recovers an engine whose hot-key
// state is spread over two candidate tasks. The persisted pin table
// must carry the split assignments across the crash: exactly-once
// output on every seed and both backends.
func TestCrashSweepSplitKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("split-key crash sweep skipped in -short mode")
	}
	est := stats.NewEstimates(0.1)
	for _, r := range []string{"R", "S"} {
		est.SetRate(r, 100)
		est.SetDegree(r+".a", &stats.AttrDegrees{
			Count:    100000,
			Distinct: 14,
			Top:      []stats.HeavyHitter{{Hash: tuple.IntValue(0).Hash(), Count: 75000}},
		})
	}
	base := CrashScenario{Scenario: Scenario{
		Workload:  "q1: R(a) S(a)",
		Options:   core.Options{StoreParallelism: 2},
		Estimates: est,
		Window:    60,
		Stream:    StreamConfig{Tuples: 200, Keys: 5},
		StepMode:  true,
	}}
	_, _, topo, err := base.build()
	if err != nil {
		t.Fatal(err)
	}
	nSplit := 0
	for _, s := range topo.Stores {
		nSplit += len(s.SplitKeys)
	}
	if nSplit == 0 {
		t.Fatal("degree estimates produced no split keys — sweep vacuous")
	}
	runs, err := CrashSweep(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 24 {
		t.Errorf("verified %d runs, want 24 (8 seeds x 3 backends)", runs)
	}
}
