package runtime

import (
	"bytes"
	"math"
	stdruntime "runtime"
	"strings"
	"testing"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/tuple"
)

// TestCheckpointResumeMatchesOracle is the end-to-end recovery property:
// results produced before the checkpoint plus results produced by a
// fresh engine restored from it must equal the oracle of the full,
// uninterrupted stream — the restored engine finds join partners in the
// recovered windowed history (Fig. 6's completeness argument).
func TestCheckpointResumeMatchesOracle(t *testing.T) {
	workload := "q1: R(a) S(a,b) T(b)"
	opts := core.Options{StoreParallelism: 3}
	est := flatEstimates([]string{"R", "S", "T"}, 100)

	h1 := newHarness(t, workload, opts, est, Config{Substrate: SubstrateSynchronous})
	ins := randomStream(h1.cat, 240, 5, 23)
	half := len(ins) / 2
	h1.ingestAll(t, ins[:half])

	var snap bytes.Buffer
	if err := h1.eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	preStored := h1.eng.Metrics().Snapshot().Stored
	h1.eng.Stop()

	// Fresh engine, same plan and topology; restore, then resume.
	h2 := newHarness(t, workload, opts, est, Config{Substrate: SubstrateSynchronous})
	defer h2.eng.Stop()
	if err := h2.eng.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := h2.eng.Metrics().Snapshot().Stored; got != preStored {
		t.Errorf("restored stored count = %d, want %d", got, preStored)
	}
	h2.ingestAll(t, ins[half:])

	// Merge the two engines' results and compare against the oracle.
	merged := map[string]int{}
	for k, v := range h1.sinks["q1"].Results() {
		merged[k] += v
	}
	for k, v := range h2.sinks["q1"].Results() {
		merged[k] += v
	}
	want := ReferenceJoin(h1.queries[0], h1.cat, 0, ins)
	if len(want) == 0 {
		t.Fatal("oracle empty — vacuous")
	}
	for k, n := range want {
		if merged[k] != n {
			t.Errorf("result %q count = %d, oracle %d", k, merged[k], n)
		}
	}
	for k := range merged {
		if want[k] == 0 {
			t.Errorf("spurious result %q", k)
		}
	}
}

// TestCheckpointCrossBackendRoundTrip: the snapshot format is
// backend-agnostic — state checkpointed on one backend restores onto
// any other (all six directions across the container/columnar/tiered
// rows of the state matrix), a snapshot of the restored engine is
// byte-identical to the one it was restored from, and the resumed run
// still matches the oracle of the full stream. Engines fed identically
// also produce byte-identical snapshots regardless of backend —
// including a columnar engine whose hot budget has spilled epochs to
// disk, whose checkpoint must decode them transparently. The stream is
// mixedStream's, over a plan that stores S⋈T rows of two schemas in one
// store, so the bytes cover every kind a column must keep exact.
func TestCheckpointCrossBackendRoundTrip(t *testing.T) {
	const epochLen = 48
	workload := "q1: R(a) S(a,b) T(b)"
	opts := core.Options{StoreParallelism: 3}
	est := flatEstimates([]string{"R", "S", "T"}, 100)
	est.SetSelectivity(query.Predicate{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}}, 0.5)
	kinds := backendKinds()
	cfgFor := func(k stateRow) Config {
		return k.apply(Config{Substrate: SubstrateSynchronous, EpochLength: epochLen})
	}

	// Byte-identical snapshots across backends on the full stream.
	var full []Ingestion
	var snaps [][]byte
	for _, k := range kinds {
		h := newHarness(t, workload, opts, est, cfgFor(k))
		if full == nil {
			full = mixedStream(h.cat, 240, epochLen, 23)
		}
		h.ingestAll(t, full)
		if k.name == "columnar" {
			checkMixedColumns(t, h.eng)
		}
		if k.hot > 0 {
			if d := h.eng.Metrics().Snapshot().DemotedEpochs; d == 0 {
				t.Fatal("tiered row demoted nothing — cross-backend checkpoint test vacuous for cold state")
			}
		}
		var b bytes.Buffer
		if err := h.eng.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		h.eng.Stop()
		snaps = append(snaps, b.Bytes())
	}
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Errorf("snapshot bytes differ: %s (%d bytes) vs %s (%d bytes)",
				kinds[0], len(snaps[0]), kinds[i], len(snaps[i]))
		}
	}

	// Save-on-one / restore-on-the-other, all six directions.
	for _, src := range kinds {
		for _, dst := range kinds {
			if src == dst {
				continue
			}
			t.Run(src.name+"-to-"+dst.name, func(t *testing.T) {
				h1 := newHarness(t, workload, opts, est, cfgFor(src))
				ins := mixedStream(h1.cat, 240, epochLen, 23)
				half := len(ins) / 2
				h1.ingestAll(t, ins[:half])
				var snap bytes.Buffer
				if err := h1.eng.Checkpoint(&snap); err != nil {
					t.Fatal(err)
				}
				preStored := h1.eng.Metrics().Snapshot().Stored
				h1.eng.Stop()

				h2 := newHarness(t, workload, opts, est, cfgFor(dst))
				defer h2.eng.Stop()
				if err := h2.eng.Restore(bytes.NewReader(snap.Bytes())); err != nil {
					t.Fatal(err)
				}
				m := h2.eng.Metrics().Snapshot()
				if m.Stored != preStored {
					t.Errorf("restored stored count = %d, want %d", m.Stored, preStored)
				}
				var again bytes.Buffer
				if err := h2.eng.Checkpoint(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), snap.Bytes()) {
					t.Errorf("snapshot of the restored engine differs from the one restored (%d vs %d bytes)", again.Len(), snap.Len())
				}
				if m.StoreBytes <= 0 {
					t.Errorf("restored state accounts %d bytes", m.StoreBytes)
				}
				h2.ingestAll(t, ins[half:])

				merged := map[string]int{}
				for k, v := range h1.sinks["q1"].Results() {
					merged[k] += v
				}
				for k, v := range h2.sinks["q1"].Results() {
					merged[k] += v
				}
				want := ReferenceJoin(h1.queries[0], h1.cat, 0, ins)
				if len(want) == 0 {
					t.Fatal("oracle empty — vacuous")
				}
				for k, n := range want {
					if merged[k] != n {
						t.Errorf("result %q count = %d, oracle %d", k, merged[k], n)
					}
				}
				for k := range merged {
					if want[k] == 0 {
						t.Errorf("spurious result %q", k)
					}
				}
			})
		}
	}
}

func TestCheckpointEmptyEngine(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100), Config{Substrate: SubstrateSynchronous})
	defer h.eng.Stop()
	var snap bytes.Buffer
	if err := h.eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	h2 := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100), Config{Substrate: SubstrateSynchronous})
	defer h2.eng.Stop()
	if err := h2.eng.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if got := h2.eng.Metrics().Snapshot().Stored; got != 0 {
		t.Errorf("stored = %d after empty restore", got)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1},
		flatEstimates([]string{"R", "S"}, 100), Config{Substrate: SubstrateSynchronous})
	defer h.eng.Stop()
	for _, in := range []string{"", "short", "NOTACKPT________", "CLSHCKP1"} {
		if err := h.eng.Restore(strings.NewReader(in)); err == nil {
			t.Errorf("restore accepted %q", in)
		}
	}
}

func TestRestoreRejectsUnknownTask(t *testing.T) {
	// Checkpoint a two-relation topology, restore into a different one.
	h1 := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100), Config{Substrate: SubstrateSynchronous})
	defer h1.eng.Stop()
	ins := randomStream(h1.cat, 60, 4, 3)
	h1.ingestAll(t, ins)
	var snap bytes.Buffer
	if err := h1.eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	h2 := newHarness(t, "q1: U(a) V(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"U", "V"}, 100), Config{Substrate: SubstrateSynchronous})
	defer h2.eng.Stop()
	if err := h2.eng.Restore(&snap); err == nil {
		t.Error("restore into mismatched topology succeeded")
	}
}

func TestCheckpointPreservesWindowSemantics(t *testing.T) {
	// Old tuples recovered from the checkpoint must still be rejected by
	// the window check when probed after restore.
	h1 := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateSynchronous, DefaultWindow: 10})
	if err := h1.eng.Ingest("R", 0, tuple.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := h1.eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	h1.eng.Stop()

	h2 := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateSynchronous, DefaultWindow: 10})
	defer h2.eng.Stop()
	if err := h2.eng.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	// S at ts=5 joins the recovered R (within window); S at ts=50 must not.
	if err := h2.eng.Ingest("S", 5, tuple.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	if err := h2.eng.Ingest("S", 50, tuple.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	if got := h2.sinks["q1"].Count(); got != 1 {
		t.Errorf("results after restore = %d, want 1 (window must still apply)", got)
	}
}

// TestCheckpointWalkAllocs pins an incremental checkpoint's walk and
// encode on a columnar engine to its segments, not its rows:
// Engine.Segments reads each dirty epoch's columns in place and
// AppendStateRecord encodes straight from them, so no tuple is built per
// checkpointed row. A walk that materialized its rows would allocate at
// least one object per row — dozens per segment here.
func TestCheckpointWalkAllocs(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)", core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateSynchronous, StateBackend: BackendColumnar, EpochLength: 2048})
	defer h.eng.Stop()
	h.ingestAll(t, randomStream(h.cat, 4000, 50, 5))
	segs, err := h.eng.Segments(true)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for i := range segs {
		rows += segs[i].Len()
	}
	if rows < 40*len(segs) {
		t.Fatalf("%d rows in %d segments: too few rows per segment to tell rows from segments", rows, len(segs))
	}
	buf := AppendStateRecord(nil, &StateRecord{Segs: segs})
	avg := testing.AllocsPerRun(20, func() {
		segs, _ := h.eng.Segments(true)
		buf = AppendStateRecord(buf[:0], &StateRecord{Segs: segs})
	})
	if budget := float64(3*len(segs) + 16); avg > budget {
		t.Errorf("dirty walk + record encode of %d segments (%d rows) allocates %.0f objects, want ≤ %.0f", len(segs), rows, avg, budget)
	}
	t.Logf("%d segments, %d rows: %.0f allocations per walk and encode", len(segs), rows, avg)
}

// TestDecodeAllocs pins the decode side to columns, not rows: a spill
// frame (decodeSpill) and a state record (DecodeStateRecord) of int-only
// rows decode straight onto a segment's columns, so their objects grow
// with the columns' doublings, not with the row count. A decode that
// built a tuple per row would allocate two objects per row — over 2 000
// at 1 000 rows.
func TestDecodeAllocs(t *testing.T) {
	sc := tuple.NewSchema("R.a", "R.b", "R.τ")
	for _, rows := range []int{100, 1000} {
		s := newColSegment(7)
		for i := range rows {
			s.add(tuple.New(sc, tuple.Time(i), tuple.IntValue(int64(i%13)), tuple.IntValue(int64(i)), tuple.IntValue(int64(i))), uint64(i))
		}
		spill := appendSpill(nil, s)
		sg := s.view()
		sg.Key = SegKey{Store: "st", Part: 1, Epoch: 7}
		rec := AppendStateRecord(nil, &StateRecord{Segs: []Segment{sg}})
		for _, c := range []struct {
			name   string
			decode func() error
		}{
			{"decodeSpill", func() error { _, err := decodeSpill(spill); return err }},
			{"DecodeStateRecord", func() error { _, err := DecodeStateRecord(rec); return err }},
		} {
			if err := c.decode(); err != nil {
				t.Fatalf("%s of %d rows: %v", c.name, rows, err)
			}
			avg := testing.AllocsPerRun(20, func() { _ = c.decode() })
			t.Logf("%s of %d rows: %.0f objects", c.name, rows, avg)
			if rows == 1000 && avg >= 200 {
				t.Errorf("%s of %d int rows allocates %.0f objects, want < 200", c.name, rows, avg)
			}
		}
	}
}

// TestLoadTaskEpochAllocs restores a 4 000-row snapshot of a columnar
// engine into a fresh one, segment by segment through LoadTaskEpoch as
// recovery loads a checkpoint chain, with both stores' keys probed so
// every epoch indexes the rows it takes. A columnar store copies its
// rows, so the restore reads each one through a scratch tuple: what it
// allocates grows with the epochs and their indices, not with the rows.
// An epoch's column arrays, index table and chain grow by doubling, as
// they do under live inserts (so a restored store is charged the bytes
// the live one was), about 80 objects for an epoch of 500 rows; a heap
// tuple per row cost 2.5 objects a row on top.
func TestLoadTaskEpochAllocs(t *testing.T) {
	cfg := Config{Substrate: SubstrateSynchronous, StateBackend: BackendColumnar, EpochLength: 2000}
	start := func() *harness {
		return newHarness(t, "q1: R(a) S(a)", core.Options{StoreParallelism: 1}, flatEstimates([]string{"R", "S"}, 100), cfg)
	}
	src := start()
	defer src.eng.Stop()
	src.ingestAll(t, randomStream(src.cat, 4000, 50, 3))
	segs, err := src.eng.Segments(false)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for i := range segs {
		rows += segs[i].Len()
	}
	if rows != 4000 || len(segs) < 8 {
		t.Fatalf("snapshot of %d rows in %d segments, want 4000 rows in two stores' epochs", rows, len(segs))
	}
	objects := math.Inf(1)
	for range 3 {
		dst := start()
		// One tuple of each relation, far in the past, probes both keys.
		dst.ingestAll(t, []Ingestion{{Rel: "R", TS: -1, Vals: []tuple.Value{tuple.IntValue(-1)}}, {Rel: "S", TS: -1, Vals: []tuple.Value{tuple.IntValue(-1)}}})
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		for i := range segs {
			if err := dst.eng.LoadTaskEpoch(&segs[i]); err != nil {
				t.Fatal(err)
			}
		}
		stdruntime.ReadMemStats(&after)
		objects = min(objects, float64(after.Mallocs-before.Mallocs))
		if n := dst.eng.Snapshot().Stored; n != int64(rows)+2 {
			t.Fatalf("%d stored tuples after the restore, want %d", n, rows+2)
		}
		dst.eng.Stop()
	}
	budget := 100 * len(segs)
	t.Logf("restoring %d rows in %d segments: %.0f objects (budget %d)", rows, len(segs), objects, budget)
	if objects > float64(budget) {
		t.Errorf("restoring %d columnar rows in %d segments allocates %.0f objects, want ≤ %d: a restore allocates per row", rows, len(segs), objects, budget)
	}
}
