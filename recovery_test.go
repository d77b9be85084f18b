package clash

import (
	"errors"
	"fmt"
	"io"
	goruntime "runtime"
	"sync"
	"testing"
)

// commitBuf is the exactly-once sink pattern from DESIGN.md §11 at the
// public API: results buffer as pending and are released (acknowledged)
// only by the OnCommit hook — those pending at a checkpoint's cut, once
// it is durable. A crash discards pending; replay regenerates exactly
// that suffix.
type commitBuf struct {
	mu        sync.Mutex
	pending   []string
	marked    int
	committed map[string]int
}

func newCommitBuf() *commitBuf { return &commitBuf{committed: map[string]int{}} }

func (b *commitBuf) add(tp *Tuple) {
	b.mu.Lock()
	b.pending = append(b.pending, fmt.Sprint(tp))
	b.mu.Unlock()
}

func (b *commitBuf) Mark(uint64) {
	b.mu.Lock()
	b.marked = len(b.pending)
	b.mu.Unlock()
}

func (b *commitBuf) Release() {
	b.mu.Lock()
	for _, s := range b.pending[:b.marked] {
		b.committed[s]++
	}
	b.pending = append(b.pending[:0], b.pending[b.marked:]...)
	b.marked = 0
	b.mu.Unlock()
}

// recoveryStream is a deterministic joining workload: each step feeds
// one tuple of R, S, and T with overlapping keys.
func recoveryStream(eng *Engine, from, to int) error {
	for i := from; i < to; i++ {
		ts := Time(i + 1)
		if err := eng.Ingest("R", ts, Int(int64(i%5))); err != nil {
			return err
		}
		if err := eng.Ingest("S", ts, Int(int64(i%5)), Int(int64(i%3))); err != nil {
			return err
		}
		if err := eng.Ingest("T", ts, Int(int64(i%3))); err != nil {
			return err
		}
	}
	return nil
}

func recoveryConfig(st WALStorage, buf *commitBuf) Config {
	return Config{
		Workload:    "q1: R(a) S(a,b) T(b)",
		Synchronous: true,
		WAL:         &WALConfig{Storage: st, CheckpointEvery: 7},
		OnResult:    map[string]func(*Tuple){"q1": buf.add},
	}
}

// TestWALRecoverRoundTrip: run durably, crash mid-stream (abandon the
// engine without a final checkpoint), Recover, finish the stream — the
// committed output across both lives equals an uninterrupted run's,
// exactly once. On directory storage the second life opens the
// directory afresh, as a restarted process does, over the files the
// crashed one left mapped and unclosed.
func TestWALRecoverRoundTrip(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		st := NewMemWALStorage()
		testWALRecoverRoundTrip(t, func() WALStorage { return st })
	})
	t.Run("dir", func(t *testing.T) {
		dir := t.TempDir()
		testWALRecoverRoundTrip(t, func() WALStorage {
			st, err := NewDirWALStorage(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			return st
		})
	})
}

// testWALRecoverRoundTrip runs the crash round trip; open returns the
// storage of each life.
func testWALRecoverRoundTrip(t *testing.T, open func() WALStorage) {
	const steps = 13
	const crashAt = 8

	// Uninterrupted oracle, no WAL.
	want := map[string]int{}
	oracle, err := Start(Config{
		Workload:    "q1: R(a) S(a,b) T(b)",
		Synchronous: true,
		OnResult: map[string]func(*Tuple){"q1": func(tp *Tuple) {
			want[fmt.Sprint(tp)]++
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := recoveryStream(oracle, 0, steps); err != nil {
		t.Fatal(err)
	}
	oracle.Drain()
	oracle.Stop()
	if len(want) == 0 {
		t.Fatal("oracle produced no results — test vacuous")
	}

	// First life: ingest a prefix, then crash (no Close, no final
	// checkpoint — the WAL tail past the last anchor is stranded).
	buf1 := newCommitBuf()
	eng1, err := Start(recoveryConfig(open(), buf1))
	if err != nil {
		t.Fatal(err)
	}
	eng1.OnCommit(buf1)
	if err := recoveryStream(eng1, 0, crashAt); err != nil {
		t.Fatal(err)
	}
	if eng1.WALStats().WALBytes == 0 || eng1.WALStats().Checkpoints == 0 {
		t.Fatalf("durability layer idle before crash: %+v", eng1.WALStats())
	}
	// Crash: abandon eng1. buf1.pending is the unacknowledged output a
	// real sink would never have released.

	// Second life: recover and finish the stream.
	buf2 := newCommitBuf()
	st2 := open()
	eng2, rstats, err := Recover(recoveryConfig(st2, buf2))
	if err != nil {
		t.Fatal(err)
	}
	eng2.OnCommit(buf2)
	if rstats.TornWALBytes != 0 || rstats.TornCheckpointBytes != 0 {
		t.Errorf("a crash between records tore %d WAL and %d checkpoint bytes, want 0",
			rstats.TornWALBytes, rstats.TornCheckpointBytes)
	}
	if rstats.ReplayedIngests == 0 {
		t.Error("no WAL records replayed — crash landed exactly on a checkpoint?")
	}
	if rstats.SkippedIngests == 0 {
		t.Error("no WAL records deduplicated against the checkpoint anchor")
	}
	if got, wantSeq := rstats.LastSeq, uint64(crashAt*3); got != wantSeq {
		t.Errorf("recovered to seq %d, want %d", got, wantSeq)
	}
	if err := recoveryStream(eng2, crashAt, steps); err != nil {
		t.Fatal(err)
	}
	eng2.Drain()
	if err := eng2.Close(); err != nil { // final checkpoint commits the tail
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if c, ok := st2.(io.Closer); ok { // caller-owned storage
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	got := map[string]int{}
	for s, n := range buf1.committed {
		got[s] += n
	}
	for s, n := range buf2.committed {
		got[s] += n
	}
	if len(got) != len(want) {
		t.Fatalf("committed %d distinct results, oracle has %d", len(got), len(want))
	}
	for s, n := range want {
		if got[s] != n {
			t.Errorf("result %s committed %d times, want %d", s, got[s], n)
		}
	}
}

// TestStartRefusesExistingWAL: Start over non-empty storage is an
// ErrWALNotEmpty, pointing the caller at Recover.
func TestStartRefusesExistingWAL(t *testing.T) {
	st := NewMemWALStorage()
	buf := newCommitBuf()
	eng, err := Start(recoveryConfig(st, buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := recoveryStream(eng, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Start(recoveryConfig(st, newCommitBuf())); !errors.Is(err, ErrWALNotEmpty) {
		t.Errorf("Start over existing history: error %v does not wrap ErrWALNotEmpty", err)
	}
}

// TestRecoverFromCleanClose: Close flushes a final checkpoint, so a
// clean restart replays nothing and restores everything.
func TestRecoverFromCleanClose(t *testing.T) {
	st := NewMemWALStorage()
	eng, err := Start(recoveryConfig(st, newCommitBuf()))
	if err != nil {
		t.Fatal(err)
	}
	if err := recoveryStream(eng, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, rstats, err := Recover(recoveryConfig(st, newCommitBuf()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if rstats.ReplayedIngests != 0 {
		t.Errorf("replayed %d ingests after a clean Close, want 0", rstats.ReplayedIngests)
	}
	if rstats.RestoredTuples == 0 {
		t.Error("no tuples restored from the checkpoint chain")
	}
	if rstats.LastSeq != 15 {
		t.Errorf("recovered to seq %d, want 15", rstats.LastSeq)
	}
}

// TestFlowWALCheckpointsBesideStream runs a durable engine on the flow
// substrate, where each checkpoint is cut on the ingesting goroutine and
// committed beside the stream while results of later ingests keep
// arriving, with a checkpoint due every 16 ingests and cut at the latest
// every 32. It crashes mid-stream, recovers replaying at most 32
// ingests, and finishes the stream: the results committed across both
// lives byte-match an uninterrupted synchronous run's, each exactly
// once. CI runs it under the race detector, where the commit goroutine
// meets the ingesting goroutine and the workers.
func TestFlowWALCheckpointsBesideStream(t *testing.T) {
	const workload = "q1: R(a) S(a)\nq2: S(a) T(a)"
	const n, crashAt, every = 3000, 1900, 16
	ingest := func(eng *Engine, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			rel := [...]string{"R", "S", "T"}[i%3]
			if err := eng.Ingest(rel, Time(i+1), Int(int64(i*7%17))); err != nil {
				t.Fatal(err)
			}
			if i%8 == 0 {
				// A paced source leaves the commit goroutine a core now
				// and then; a saturating one can defer it for a while.
				goruntime.Gosched()
			}
		}
	}
	want := map[string]int{}
	var mu sync.Mutex
	count := func(tp *Tuple) {
		mu.Lock()
		want[fmt.Sprint(tp)]++
		mu.Unlock()
	}
	oracle, err := Start(Config{Workload: workload, Synchronous: true, DefaultWindow: 300,
		OnResult: map[string]func(*Tuple){"q1": count, "q2": count}})
	if err != nil {
		t.Fatal(err)
	}
	ingest(oracle, 0, n)
	oracle.Drain()
	oracle.Stop()

	st := NewMemWALStorage()
	config := func(buf *commitBuf) Config {
		return Config{Workload: workload, Substrate: SubstrateFlow, DefaultWindow: 300,
			WAL:      &WALConfig{Storage: st, CheckpointEvery: every},
			OnResult: map[string]func(*Tuple){"q1": buf.add, "q2": buf.add}}
	}
	buf1 := newCommitBuf()
	eng1, err := Start(config(buf1))
	if err != nil {
		t.Fatal(err)
	}
	eng1.OnCommit(buf1)
	ingest(eng1, 0, crashAt)
	// A checkpoint due while a commit is in flight waits for a later
	// ingest, but at twice the cadence the ingest waits for the commit
	// and cuts: however the host schedules the commit, a cut falls at
	// least every 2·16 ingests.
	s := eng1.WALStats()
	t.Logf("%d checkpoints over %d ingests at a cadence of %d", s.Checkpoints, crashAt, every)
	if s.Checkpoints < crashAt/(2*every) {
		t.Fatalf("%d checkpoints over %d ingests, want at least %d at a cadence of %d", s.Checkpoints, crashAt, crashAt/(2*every), every)
	}
	// Crash: no final checkpoint. Stop leaves the unanchored WAL tail for
	// replay and waits for the commit in flight, as a process that dies
	// after it would.
	eng1.Stop()

	buf2 := newCommitBuf()
	eng2, rstats, err := Recover(config(buf2))
	if err != nil {
		t.Fatal(err)
	}
	eng2.OnCommit(buf2)
	if rstats.CheckpointRecords == 0 || rstats.RestoredTuples == 0 {
		t.Fatalf("recovery used %d checkpoint records, restored %d tuples", rstats.CheckpointRecords, rstats.RestoredTuples)
	}
	if rstats.ReplayedIngests > 2*every {
		t.Errorf("replayed %d ingests, want at most two cadences (%d)", rstats.ReplayedIngests, 2*every)
	}
	ingest(eng2, int(rstats.LastSeq), n)
	eng2.Drain()
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}

	got := map[string]int{}
	for _, b := range []*commitBuf{buf1, buf2} {
		for s, c := range b.committed {
			got[s] += c
		}
	}
	if len(want) == 0 {
		t.Fatal("the oracle produced no results — test vacuous")
	}
	if len(got) != len(want) {
		t.Errorf("committed %d distinct results, the oracle has %d", len(got), len(want))
	}
	for s, c := range want {
		if got[s] != c {
			t.Errorf("result %s committed %d times, want %d", s, got[s], c)
		}
	}
}
