package sim

// Crash-recovery harness: the deterministic simulation substrate's
// answer to "did recovery lose or duplicate anything?". A CrashScenario
// runs a journaled engine partway through its stream, abandons it (a
// crash loses every volatile structure — mailboxes, caches, uncommitted
// output — but not the storage), optionally tears the unsynced WAL
// tail, recovers a fresh engine from checkpoint + WAL replay, resumes
// the source at the recovered offset, and byte-compares the union of
// committed outputs against an uninterrupted oracle run. The comparison
// is valid by the schedule-independence invariant (DESIGN.md §7): the
// crashed/recovered pair executes a different schedule than the oracle,
// but in-order delivery guarantees identical result multisets.

import (
	"fmt"

	"clash/internal/recovery"
	"clash/internal/rng"
	"clash/internal/runtime"
)

// TornWrite models a crash that loses the unsynced tail of the WAL: a
// seeded number of bytes (usually tearing mid-frame) is truncated off
// at crash time. Recovery must absorb the tear by truncating to the
// valid frame prefix and re-reading the lost tuples from the source.
// The tear never reaches at or before the last checkpoint anchor —
// output commit is ordered after checkpoint durability, so an
// acknowledged commit point cannot be lost.
type TornWrite struct {
	// DropMax bounds the torn-byte count (default 40).
	DropMax int64
}

func (tw *TornWrite) apply(st *recovery.MemStorage, seed uint64, keep int64) error {
	dropMax := tw.DropMax
	if dropMax <= 0 {
		dropMax = 40
	}
	r := rng.New(seed ^ 0x746f726e) // "torn", decorrelated from schedule/stream seeds
	n := st.Size(recovery.StreamWAL) - (1 + r.Int64n(dropMax))
	if n < keep {
		n = keep
	}
	return st.Truncate(recovery.StreamWAL, n)
}

// CrashScenario is a Scenario that crashes and recovers mid-stream.
//
// Each checkpoint runs as it does beside a real stream: the harness
// cuts it when it comes due and commits it a seeded 0–3 ingests later,
// with no goroutine, so a crash can land while a cut is in flight.
type CrashScenario struct {
	Scenario
	// CrashAfter is how many source tuples the first engine ingests
	// before the crash (0 = half the stream).
	CrashAfter int
	// CheckpointEvery is the incremental-checkpoint cadence in source
	// tuples (0 = 16, frequent at simulation scale).
	CheckpointEvery int
	// Torn, if set, tears the WAL tail at crash time.
	Torn *TornWrite

	// crashIn places the crash relative to a checkpoint (CrashSweep
	// varies it with the seed).
	crashIn crashPoint
}

// crashPoint places a crash relative to a checkpoint's cut and commit.
type crashPoint int

const (
	// crashAnywhere crashes where the schedule stands: between records,
	// or with a cut in flight if one is.
	crashAnywhere crashPoint = iota
	// crashAfterCut crashes with a cut taken and its record not
	// appended (one is cut at the crash if none is in flight).
	crashAfterCut
	// crashAfterAppend crashes with a record appended and published but
	// its hooks not released.
	crashAfterAppend
)

// commitSchedule runs a manager's checkpoints the way they run beside a
// stream, on the calling goroutine: a cut when one is due, its commit a
// seeded number of ingests later.
type commitSchedule struct {
	mgr *recovery.Manager
	r   *rng.RNG
	in  int // ingests until the cut in flight commits; -1: none in flight
}

func newCommitSchedule(mgr *recovery.Manager, seed uint64) *commitSchedule {
	return &commitSchedule{mgr: mgr, r: rng.New(seed ^ 0x636f6d6d6974), in: -1} // "commit"
}

// step runs after each ingest: commit the cut in flight when its time
// has come, then cut when a checkpoint is due.
func (cs *commitSchedule) step() error {
	if cs.in > 0 {
		cs.in--
	}
	if cs.in == 0 {
		if err := cs.commit(); err != nil {
			return err
		}
	}
	if cs.in < 0 && cs.mgr.Due() {
		if err := cs.mgr.Cut(); err != nil {
			return err
		}
		cs.in = cs.r.Intn(4)
		if cs.in == 0 {
			return cs.commit()
		}
	}
	return nil
}

// commit commits the cut in flight.
func (cs *commitSchedule) commit() error {
	cs.in = -1
	if err := cs.mgr.AppendCut(); err != nil {
		return err
	}
	cs.mgr.ReleaseCut()
	return nil
}

// crash leaves the manager at the crash point: with a cut in flight,
// or a record appended whose hooks are not released.
func (cs *commitSchedule) crash(at crashPoint) error {
	if at == crashAnywhere {
		return nil
	}
	if cs.in < 0 {
		if err := cs.mgr.Cut(); err != nil {
			return err
		}
	}
	if at == crashAfterAppend {
		return cs.mgr.AppendCut()
	}
	return nil
}

func (cs *CrashScenario) checkpointEvery() int {
	if cs.CheckpointEvery <= 0 {
		return 16
	}
	return cs.CheckpointEvery
}

// CrashResult is the outcome of one crash-recovery run.
type CrashResult struct {
	// Oracle is the uninterrupted run of the same scenario.
	Oracle *Result
	// Recovered holds, per query, the union of results committed before
	// the crash and results committed by the recovered engine.
	Recovered map[string]map[string]int
	// Stats describes the recovery itself.
	Stats *recovery.Stats
	// Journal is the recovered manager's final footprint.
	Journal recovery.ManagerStats
}

// VerifyExactlyOnce byte-compares the recovered output against the
// oracle: every oracle result exactly once, nothing spurious — the
// crash neither lost results nor duplicated them.
func (cr *CrashResult) VerifyExactlyOnce() error {
	for name, want := range cr.Oracle.Results {
		got := cr.Recovered[name]
		if len(got) != len(want) {
			return fmt.Errorf("sim: %s: %d distinct recovered results, oracle has %d", name, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				return fmt.Errorf("sim: %s: result %q count %d after recovery, oracle %d", name, k, got[k], n)
			}
		}
	}
	return nil
}

// RunWithRecovery executes the crash-recovery scenario once.
func (cs *CrashScenario) RunWithRecovery() (*CrashResult, error) {
	oracle, err := cs.Scenario.Run()
	if err != nil {
		return nil, fmt.Errorf("sim: oracle run: %w", err)
	}
	if oracle.Metrics.ShedTuples != 0 {
		return nil, fmt.Errorf("sim: oracle shed %d tuples — crash recovery requires a lossless scenario", oracle.Metrics.ShedTuples)
	}

	st := recovery.NewMemStorage()
	rcfg := recovery.Config{CheckpointEvery: cs.checkpointEvery()}
	mgr, err := recovery.NewManager(st, rcfg)
	if err != nil {
		return nil, err
	}

	// First life: journaled engine, output released only at checkpoints.
	qs, cat, topo, err := cs.build()
	if err != nil {
		return nil, err
	}
	credits := cs.effectiveCredits()
	eng1 := runtime.New(cs.engineConfig(cat, credits, nil))
	eng1.SetJournal(mgr)
	mgr.Bind(eng1)
	if err := eng1.Install(topo, 0); err != nil {
		return nil, err
	}
	sinks1 := map[string]*recovery.CommittedSink{}
	for _, q := range qs {
		s := recovery.NewCommittedSink()
		sinks1[q.Name] = s
		eng1.OnResult(q.Name, s.Add)
		mgr.OnCommit(s)
	}

	ins := generateStream(cat, cs.Stream)
	for _, f := range cs.Faults {
		ins = f.Deliver(ins)
	}
	crashAt := cs.CrashAfter
	if crashAt <= 0 || crashAt > len(ins) {
		crashAt = len(ins) / 2
	}
	sched := newCommitSchedule(mgr, cs.Seed)
	for _, in := range ins[:crashAt] {
		if err := eng1.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			return nil, fmt.Errorf("sim: pre-crash ingest: %w", err)
		}
		if err := sched.step(); err != nil {
			return nil, fmt.Errorf("sim: pre-crash checkpoint: %w", err)
		}
	}
	if err := sched.crash(cs.crashIn); err != nil {
		return nil, fmt.Errorf("sim: checkpoint at the crash: %w", err)
	}
	if shed := eng1.Metrics().Snapshot().ShedTuples; shed != 0 {
		return nil, fmt.Errorf("sim: pre-crash run shed %d tuples — crash recovery requires a lossless scenario", shed)
	}
	// Crash: abandon eng1 without Stop or Drain. In-flight messages and
	// uncommitted sink output are gone, and so is a cut in flight; the
	// storage survives. The sim substrate runs no goroutines, so
	// abandonment leaks nothing.
	if cs.Torn != nil {
		if err := cs.Torn.apply(st, cs.Seed, mgr.LastAnchor()); err != nil {
			return nil, fmt.Errorf("sim: torn write: %w", err)
		}
	}

	// Second life: fresh engine, same topology; sinks attach before
	// Recover so replayed results land in them (as uncommitted output).
	qs2, cat2, topo2, err := cs.build()
	if err != nil {
		return nil, err
	}
	eng2 := runtime.New(cs.engineConfig(cat2, credits, nil))
	defer eng2.Stop()
	if err := eng2.Install(topo2, 0); err != nil {
		return nil, err
	}
	sinks2 := map[string]*recovery.CommittedSink{}
	for _, q := range qs2 {
		s := recovery.NewCommittedSink()
		sinks2[q.Name] = s
		eng2.OnResult(q.Name, s.Add)
	}
	mgr2, rstats, err := recovery.Recover(st, eng2, rcfg)
	if err != nil {
		return nil, fmt.Errorf("sim: recover: %w", err)
	}
	for _, q := range qs2 {
		mgr2.OnCommit(sinks2[q.Name])
	}
	// Results a cut marked but the crash kept from release: released if
	// the recovered chain holds the cut's record, dropped (replay
	// regenerates them) if not.
	for _, s := range sinks1 {
		s.Resolve(rstats.AnchorSeq)
	}

	// Resume the source where the surviving log ends. A torn tail moves
	// the resume point backwards: the lost tuples are re-read from the
	// source (the model of a replayable source, e.g. a partition offset).
	if rstats.LastSeq > uint64(len(ins)) {
		return nil, fmt.Errorf("sim: recovered seq %d past stream length %d", rstats.LastSeq, len(ins))
	}
	sched2 := newCommitSchedule(mgr2, cs.Seed+1)
	for _, in := range ins[rstats.LastSeq:] {
		if err := eng2.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			return nil, fmt.Errorf("sim: post-recovery ingest: %w", err)
		}
		if err := sched2.step(); err != nil {
			return nil, fmt.Errorf("sim: post-recovery checkpoint: %w", err)
		}
	}
	if sched2.in >= 0 {
		if err := sched2.commit(); err != nil {
			return nil, fmt.Errorf("sim: post-recovery checkpoint: %w", err)
		}
	}
	eng2.Drain()
	if err := mgr2.Close(); err != nil {
		return nil, fmt.Errorf("sim: final checkpoint: %w", err)
	}
	if err := eng2.Failure(); err != nil {
		return nil, fmt.Errorf("sim: recovered engine failed: %w", err)
	}
	if shed := eng2.Metrics().Snapshot().ShedTuples; shed != 0 {
		return nil, fmt.Errorf("sim: recovered run shed %d tuples — crash recovery requires a lossless scenario", shed)
	}

	merged := map[string]map[string]int{}
	for _, q := range qs {
		m := map[string]int{}
		for k, v := range sinks1[q.Name].Committed() {
			m[k] += v
		}
		for k, v := range sinks2[q.Name].Committed() {
			m[k] += v
		}
		merged[q.Name] = m
	}
	return &CrashResult{
		Oracle:    oracle,
		Recovered: merged,
		Stats:     rstats,
		Journal:   mgr2.Stats(),
	}, nil
}

// CrashSweep runs the crash-recovery scenario across seeds [1, n] on
// every row of the state matrix (StateConfigs), varying the schedule, the stream, and the
// crash point with the seed — where in the stream, and whether between
// records, between a cut and its append, or between an append and its
// hooks — and verifies exactly-once output for every run. The tiered arm runs under a hot budget that forces
// demotions, so crashes land while epochs sit on disk — recovery must
// rebuild them from the checkpoint chain and WAL alone (the spill file
// of the dead engine is gone). It returns the total number of
// crash-recovery runs verified.
func CrashSweep(base CrashScenario, n int) (runs int, err error) {
	tuples := base.Stream.Tuples
	if tuples <= 0 {
		tuples = 400
	}
	for _, row := range StateConfigs() {
		for seed := 1; seed <= n; seed++ {
			cs := base
			cs.Seed = uint64(seed)
			cs.crashIn = crashPoint(seed % 3)
			cs.UseState(row)
			if cs.Stream.Seed == 0 {
				cs.Stream.Seed = uint64(seed) * 31
			}
			if cs.CrashAfter == 0 {
				// Sweep the crash point across the stream, avoiding the
				// empty-log and nothing-to-resume corners (tested directly).
				cs.CrashAfter = 1 + (seed*53)%(tuples-1)
			}
			res, err := cs.RunWithRecovery()
			if err != nil {
				return runs, fmt.Errorf("backend %s seed %d: %w", row.Name, seed, err)
			}
			if err := res.VerifyExactlyOnce(); err != nil {
				return runs, fmt.Errorf("backend %s seed %d: %w", row.Name, seed, err)
			}
			runs++
		}
	}
	return runs, nil
}
