package clash

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

// commitBuf is the exactly-once sink pattern from DESIGN.md §11 at the
// public API: results buffer as pending and are released (acknowledged)
// only by the OnCommit hook, which fires after a durable checkpoint. A
// crash discards pending; replay regenerates exactly that suffix.
type commitBuf struct {
	mu        sync.Mutex
	pending   []string
	committed map[string]int
}

func newCommitBuf() *commitBuf { return &commitBuf{committed: map[string]int{}} }

func (b *commitBuf) add(tp *Tuple) {
	b.mu.Lock()
	b.pending = append(b.pending, fmt.Sprint(tp))
	b.mu.Unlock()
}

func (b *commitBuf) commit() {
	b.mu.Lock()
	for _, s := range b.pending {
		b.committed[s]++
	}
	b.pending = b.pending[:0]
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
	eng1.OnCommit(buf1.commit)
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
	eng2.OnCommit(buf2.commit)
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
