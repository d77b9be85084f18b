package runtime

// Spill tier of the columnar store (columnar.go, DESIGN.md §10): the
// on-disk segment file, the stub a demoted epoch leaves in its ring
// slot, and the demote / read-through / promote moves between the two.
// When resident state crosses Config.StateHotBytes the task demotes its
// coldest whole epochs: the segment is appended CRC-framed to the
// task's spill file and its slot keeps only a coldStub — tuple count,
// file coordinates, and per probed index key the filter of the index
// the epoch had while hot (columnar.go's keyFilter, kept by move) —
// beside the time bounds, so probes dismiss cold slots by window cut and
// key without touching disk. A probe that survives both reads the segment
// through: it decodes the frame, scans the decode with the hot chain
// walk and drops it, and the slot stays cold. A slot is promoted only
// when its content must change — a row lands in the cold epoch, or a
// prune cut falls inside it — so reading never moves an epoch between
// the tiers.
//
// Slot invariants:
//
//   - A slot is wholly hot or wholly cold, never split, and the flip
//     happens in place: epoch-ascending / insertion-order iteration
//     (state.go's determinism contract) cannot observe tiering.
//   - A cold slot holds a stub, a hot one none: a promotion forgets the
//     frame, and the next demotion of the epoch appends a fresh one.
//   - The newest epoch is never demoted, so the arrival path always
//     lands in memory; the ±one-epoch slack is the hot-budget tolerance
//     the bench gates.
//   - Demotion does not change an epoch's content, so it does NOT mark
//     the epoch dirty: the incremental checkpointer skips clean cold
//     epochs and checkpoint cost follows hot state.
//
// A spilled epoch is written in the one serialization of materialized
// state (codec.go), which snapshots and the checkpoint log share: the
// one frame (uvarint length ‖ crc32c ‖ payload) around the epoch, its
// row count, the schema table and the (schemaID, seq, tuple) entries in
// storage order. This file frames nothing and encodes nothing itself.
//
// The file is append-only and tombstone-pruned: expired segments are
// simply forgotten (their stubs dropped); bytes are reclaimed only by
// clear()/close(), never by rewriting — prune of cold state is O(1).
// A read is one positioned read of the frame into the store's scratch,
// and every read re-verifies the frame's CRC: a truncated or corrupt
// spill file surfaces a wrapped ErrCorruptSnapshot through the backend's
// failure hook, never a panic and never silently wrong results.
//
// The spill file is NOT a durability source. Checkpoints and the WAL
// are: recovery always builds a fresh engine with a fresh (empty)
// spill file and re-materializes state from the checkpoint chain, so a
// crash at any point of a demotion can neither lose nor duplicate an
// epoch. The file is created unlinked where the OS allows it — an
// abandoned (crashed) engine leaks no on-disk garbage.

import (
	"fmt"
	"os"
)

// spillStore is one task's append-only segment file. Like the backend
// that owns it, it is confined to the task's execution context; only
// close is called from the engine's shutdown path, after quiescence.
// The zero value (plus dir) is ready: the file appears with the first
// append, so a store that never demotes never touches disk.
type spillStore struct {
	dir  string // "" = the OS temp directory
	f    *os.File
	path string // non-empty only while a named file exists on disk
	size int64  // append offset
	done bool
	buf  []byte // framing and read scratch
}

// open creates the spill file on first demotion. The file is unlinked
// immediately where the platform allows it: the fd keeps it alive, and
// a crashed (abandoned) engine leaves nothing behind.
func (sp *spillStore) open() error {
	if sp.f != nil {
		return nil
	}
	if sp.done {
		return fmt.Errorf("runtime: spill store is closed")
	}
	f, err := os.CreateTemp(sp.dir, "clash-spill-*.seg")
	if err != nil {
		return fmt.Errorf("runtime: create spill file: %w", err)
	}
	sp.f = f
	sp.path = f.Name()
	if os.Remove(sp.path) == nil {
		sp.path = ""
	}
	return nil
}

// append frames the payload and appends it to the file, returning the
// frame's offset and length.
func (sp *spillStore) append(payload []byte) (off, n int64, err error) {
	if err := sp.open(); err != nil {
		return 0, 0, err
	}
	sp.buf = AppendFrame(sp.buf[:0], payload)
	if _, err := sp.f.WriteAt(sp.buf, sp.size); err != nil {
		return 0, 0, fmt.Errorf("runtime: spill append: %w", err)
	}
	off, n = sp.size, int64(len(sp.buf))
	sp.size += n
	return off, n, nil
}

// read returns the payload of the frame at [off, off+n), CRC-verified.
// The returned slice is the store's scratch and is only valid until the
// next store operation — decode immediately (the decoder copies).
func (sp *spillStore) read(off, n int64) ([]byte, error) {
	if sp.f == nil {
		return nil, corruptSnapshot("spill read from absent file")
	}
	sp.buf = room(sp.buf, int(n))[:n]
	if _, err := sp.f.ReadAt(sp.buf, off); err != nil {
		return nil, corruptSnapshot("spill frame [%d,+%d): %v (truncated?)", off, n, err)
	}
	payload, err := wholeFrame(sp.buf)
	if err != nil {
		return nil, fmt.Errorf("spill frame at %d: %w", off, err)
	}
	return payload, nil
}

// reset truncates the file to empty (store clear/retirement); the next
// demotion appends from offset zero again.
func (sp *spillStore) reset() error {
	sp.size = 0
	if sp.f == nil {
		return nil
	}
	if err := sp.f.Truncate(0); err != nil {
		return fmt.Errorf("runtime: spill truncate: %w", err)
	}
	return nil
}

// close fsyncs and truncates the file, closes the descriptor, and
// removes the file if it still has a name.
// Idempotent: Engine.Stop and Engine.Close may both reach it.
func (sp *spillStore) close() error {
	if sp.done {
		return nil
	}
	sp.done = true
	if sp.f == nil {
		return nil
	}
	var first error
	if err := sp.f.Sync(); err != nil && first == nil {
		first = err
	}
	if err := sp.f.Truncate(0); err != nil && first == nil {
		first = err
	}
	if err := sp.f.Close(); err != nil && first == nil {
		first = err
	}
	if sp.path != "" {
		if err := os.Remove(sp.path); err != nil && first == nil {
			first = err
		}
		sp.path = ""
	}
	sp.f = nil
	if first != nil {
		return fmt.Errorf("runtime: spill close: %w", first)
	}
	return nil
}

// coldStubBase prices a stub's fixed overhead: the struct, its ring
// slot, and the filter list header.
const coldStubBase = 160

// coldStub is what a demoted epoch keeps in memory beside its slot's
// epoch and time bounds: enough to filter the segment (the key filters
// of its indices), locate it (file coordinates of its frame, which
// carries its own CRC), and account it (count, filter bytes) without
// touching disk.
type coldStub struct {
	count int
	off   int64 // frame offset in the spill file
	len   int64 // frame length
	// filters holds one key filter per index key that had been probed on
	// this task by demotion time; a key probed for the first time later
	// has no filter and pays a read-through.
	filters     []stubFilter
	filterBytes int64
}

// stubFilter is one cold filter: the index key it answers for, by
// number.
type stubFilter struct {
	num  int32
	filt keyFilter
}

// filterFor returns the stub's filter for the key, nil when it has none.
func (st *coldStub) filterFor(key *indexKey) keyFilter {
	for i := range st.filters {
		if st.filters[i].num == key.num {
			return st.filters[i].filt
		}
	}
	return nil
}

// takeFilters moves the hot segment's index filters onto the stub, one
// per probed key — a hot segment holds an index under each: the filter
// the index kept current on every insert is the filter of the frozen
// epoch, so demotion hashes no row. Rows whose schema lacks a key
// attribute are in no chain and in no filter, so a negative remains a
// sound whole-segment skip.
func (st *coldStub) takeFilters(s *colSegment, keys probedKeys) {
	for _, pk := range keys {
		f := s.indices.get(&pk.key).filt
		if f == nil {
			// No row carries the key: one clear block admits nothing, where
			// a nil filter would stand for "none built".
			f = make(keyFilter, 1)
		}
		st.filters = append(st.filters, stubFilter{num: pk.key.num, filt: f})
		st.filterBytes += f.bytes()
	}
}

// load returns a cold slot's decoded segment — the one place that
// reads, CRC-checks, decodes, and cross-checks a spilled frame against
// its stub. The decode belongs to the caller and the slot stays cold. A
// truncated or corrupt spill file fails the engine with a wrapped
// ErrCorruptSnapshot and returns nil — never a panic.
func (c *columnarState) load(s *colSegment) *colSegment {
	stub := s.stub
	var ls *colSegment
	b, err := c.store.read(stub.off, stub.len)
	if err == nil {
		ls, err = decodeSpill(b)
	}
	if err == nil && (ls.epoch != s.epoch || ls.rows() != stub.count) {
		err = corruptSnapshot("spill segment at %d decodes to epoch %d (%d rows), stub says epoch %d (%d rows)",
			stub.off, ls.epoch, ls.rows(), s.epoch, stub.count)
	}
	if err != nil {
		c.fail(fmt.Errorf("runtime: spill read of epoch %d: %w", s.epoch, err))
		return nil
	}
	return ls
}

// demoteOldest spills the oldest hot epoch and turns its slot cold,
// refusing (ok=false) when that epoch is the newest — the arrival epoch
// always stays in memory. The slot is untouched until the spill append
// has succeeded: a write failure fails the engine with the state still
// intact, and a crash inside the window after the append merely leaves
// an unreferenced frame in a file that recovery discards wholesale.
func (c *columnarState) demoteOldest() (delta, idxDelta int64, ok bool) {
	vals := c.ring.vals
	i := 0
	for i < len(vals) && vals[i].cold {
		i++
	}
	if i >= len(vals)-1 {
		return 0, 0, false
	}
	s := vals[i]
	c.encBuf = appendSpill(c.encBuf[:0], s)
	off, n, err := c.store.append(c.encBuf)
	if err != nil {
		c.fail(err)
		return 0, 0, false
	}
	stub := &coldStub{count: s.rows(), off: off, len: n}
	stub.takeFilters(s, c.probed)
	if c.testCrashAfterSpill != nil {
		c.testCrashAfterSpill()
	}
	before, idxBefore := s.resident(), s.idxResident()
	for _, ix := range s.indices {
		// The stub holds the epoch's filters (takeFilters): the pool gets
		// the rest of each index, and a filter that went to it would be
		// rewritten by the next epoch.
		ix.filt = nil
	}
	c.recycle(s)
	*s = colSegment{epoch: s.epoch, minTS: s.minTS, maxTS: s.maxTS, stub: stub, cold: true}
	c.spilled.Add(stub.len)
	c.m.spilledBytes.Add(stub.len)
	c.m.demotedEpochs.Add(1)
	return s.resident() - before, s.idxResident() - idxBefore, true
}

// promote turns a cold slot hot in place, for a row that lands in the
// epoch or a prune cut inside it; callers account the change in the
// slot's resident bytes. The promoted rows enter the store filters here:
// the segment gets an index under every probed key, built through link,
// which feeds the key's filter. The frame is dead from here on, and the
// slot keeps no stub. On a spill read failure the engine is already
// failing; an empty segment keeps the ring consistent for the doomed
// engine's remaining teardown.
func (c *columnarState) promote(s *colSegment) {
	ls := c.load(s)
	if ls == nil {
		ls = newColSegment(s.epoch)
	}
	c.dropSpilled(s.stub)
	*s = *ls
	for _, pk := range c.probed {
		ix := s.indices.add(&pk.key, &c.pool)
		ix.feed = &pk.sf
		s.linkRows(ix)
	}
	c.m.promotedEpochs.Add(1)
}

// dropSpilled retires a stub's on-disk payload from the spill gauges
// (tombstone, eviction, or promotion — the frame itself stays dead in
// the file until clear/close truncates).
func (c *columnarState) dropSpilled(stub *coldStub) {
	c.spilled.Add(-stub.len)
	c.m.spilledBytes.Add(-stub.len)
}
