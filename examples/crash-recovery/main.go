// Durable crash recovery: run an engine with a write-ahead log and
// incremental checkpoints on disk, kill it mid-stream without warning,
// and rebuild it with clash.Recover — checkpoint chain plus WAL-suffix
// replay — delivering every result exactly once. The committed sink
// pattern shows the output-commit point: results release only after a
// durable checkpoint, so the crash cannot double-deliver (DESIGN.md
// §11).
//
//	go run ./examples/crash-recovery
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"clash"
)

const workload = "q1: orders(user) clicks(user,page) pages(page)"

// committed buffers results until the engine commits a checkpoint —
// the output side of exactly-once (a clash.Committer). Mark notes how
// many results the checkpoint being cut covers; Release hands exactly
// those on once it is durable. Anything still pending at a crash is
// regenerated by replay; anything released is never re-released.
type committed struct {
	mu       sync.Mutex
	pending  []string
	marked   int
	released []string
}

func (c *committed) add(t *clash.Tuple) {
	c.mu.Lock()
	c.pending = append(c.pending, t.String())
	c.mu.Unlock()
}

func (c *committed) Mark(uint64) {
	c.mu.Lock()
	c.marked = len(c.pending)
	c.mu.Unlock()
}

func (c *committed) Release() {
	c.mu.Lock()
	c.released = append(c.released, c.pending[:c.marked]...)
	c.pending = append(c.pending[:0], c.pending[c.marked:]...)
	c.marked = 0
	c.mu.Unlock()
}

func config(dir string, sink *committed) clash.Config {
	return clash.Config{
		Workload:    workload,
		Synchronous: true,
		WAL: &clash.WALConfig{
			Dir:             filepath.Join(dir, "journal"),
			CheckpointEvery: 4, // tiny cadence so the demo checkpoints
		},
		// Registered via Config (not Engine.OnResult): Recover replays
		// the WAL before returning, and replayed results must land in
		// the sink, not on the floor.
		OnResult: map[string]func(*clash.Tuple){"q1": sink.add},
	}
}

func main() {
	dir, err := os.MkdirTemp("", "clash-crash-recovery")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// Phase 1: a durable engine ingests; every admitted tuple hits the
	// WAL before it takes effect, and every 4th tuple triggers an
	// incremental checkpoint (only dirty epochs are written).
	sink1 := &committed{}
	eng, err := clash.Start(config(dir, sink1))
	must(err)
	eng.OnCommit(sink1)

	fmt.Println("phase 1: durable ingest")
	for i := 0; i < 6; i++ {
		must(eng.Ingest("clicks", clash.Time(10*i+10), clash.Int(int64(i%3)), clash.Str("/cart")))
	}
	must(eng.Ingest("pages", 70, clash.Str("/cart")))
	must(eng.Ingest("orders", 80, clash.Int(1))) // joins, checkpoints, commits
	must(eng.Ingest("orders", 85, clash.Int(2))) // joins — but uncommitted at the crash
	ws := eng.WALStats()
	fmt.Printf("  journal: %d WAL bytes, %d checkpoints (%d checkpoint bytes)\n",
		ws.WALBytes, ws.Checkpoints, ws.CheckpointBytes)
	fmt.Printf("  results committed %d, pending %d\n", len(sink1.released), len(sink1.pending))

	// Crash: no Close, no final checkpoint — the process just dies.
	// (Stop halts the tasks but leaves the journal exactly as a kill
	// would: a checkpoint chain plus an unanchored WAL suffix.)
	eng.Stop()
	fmt.Println("crash! (no clean shutdown; WAL tail left unanchored)")

	// Phase 2: recover from the directory. The checkpoint chain
	// restores the bulk of the state; the WAL suffix past the anchor
	// replays through the engine with sequence dedup, regenerating
	// exactly the results that were never committed.
	sink2 := &committed{}
	eng2, stats, err := clash.Recover(config(dir, sink2))
	must(err)
	defer eng2.Close()
	eng2.OnCommit(sink2)
	fmt.Println("phase 2: recovered")
	fmt.Printf("  restored %d tuples from checkpoints, replayed %d WAL records (%d deduplicated)\n",
		stats.RestoredTuples, stats.ReplayedIngests, stats.SkippedIngests)
	fmt.Printf("  regenerated pending results: %d\n", len(sink2.pending))

	// The recovered engine keeps answering — pre-crash history joins
	// post-crash arrivals — and Close flushes a final checkpoint so the
	// next recovery replays nothing.
	must(eng2.Ingest("orders", 90, clash.Int(0)))
	must(eng2.CommitCheckpoint())
	total := len(sink2.released) + len(sink2.pending)
	fmt.Printf("done: %d result(s) delivered exactly once across the crash\n", total)
	if total == 0 {
		log.Fatal("recovery failed: no results after replay")
	}
}
