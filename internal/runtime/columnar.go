package runtime

// columnarState is the epoch-ring columnar state backend (DESIGN.md
// §10). Where the container design keeps one []entry slice of
// (tuple, seq) pairs per epoch, the columnar layout stores one segment
// per epoch as flat parallel columns (tuple pointer, sequence number,
// event time). Both hang the same index kernel off their rows: colIndex
// (this file), an open-addressed uint64-hash table whose posting lists
// are int32 chains threaded through a single flat array, keyed by ALL
// stored attributes of the probing rule (plan.go's indexKey).
// Consequences:
//
//   - insert appends to three columns and pushes one chain head per
//     index: no map writes, no per-key slice growth;
//   - probe walks a chain of int32 row ids: the index is a candidate
//     filter bucketed by the 64-bit hash of the whole key, and the
//     probe's evaluation loop re-checks every predicate by value
//     (state.go's index contract);
//   - an epoch that holds nothing under the probe's key is dismissed
//     from one word: every colIndex carries a blocked Bloom filter over
//     exactly the hashes in its table (keyFilter), kept current by the
//     kernel on every insert, growth and reset, and find asks it before
//     the table — a probe into a long window visits many epochs and
//     finds rows in few;
//   - prune drops whole expired epochs off the ring in O(1), skips
//     segments wholly inside the window via their min event time, and
//     compacts only the boundary segment (in-epoch remap) with an
//     index rebuild that reuses every backing array;
//   - eviction (shedding at StateLimitBytes) is a ring pop.
//
// Iteration is deterministic: segments ascend by epoch, chains follow
// insertion order within a segment (rows append at the chain tail) — a
// pure function of the insert/prune history, never of Go map order, and
// the same on both backends.
//
// Spill tier: every ring slot is wholly hot (the columns above) or
// wholly cold (a coldStub locating the epoch's frame in the task's
// spill file and holding the key filters the epoch's indices had,
// spill.go). Demotion and promotion flip a slot in place,
// so ring order — and with it candidate order, checkpoint walks, and
// everything downstream — never depends on where an epoch lives. The
// task demotes only under a hot budget (Config.StateHotBytes); without
// one every slot stays hot and no spill file is ever created.

import (
	"math/bits"
	"sync/atomic"

	"clash/internal/tuple"
)

// Structural cost estimates (bytes) for the columnar accounting.
const (
	colSegBase = 128 // segment struct + column slice headers + index map
	colIdxBase = 96  // colIndex struct + position cache
	colRowCost = 24  // three column slots: *Tuple + uint64 + int64
)

// colHash hashes a value for the local indices. It only needs to be
// self-consistent within the index (unlike Value.Hash, which pins
// partition routing), so scalar kinds take a cheap splitmix64 finalizer
// instead of byte-wise FNV.
func colHash(v tuple.Value) uint64 {
	if v.Kind() == tuple.String {
		return v.Hash()
	}
	x := uint64(v.Int()) ^ uint64(v.Kind())<<56
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// keyHash folds the next key attribute's value hash into a composite
// key hash, order-dependently. A key's hash is the colHash of its first
// value with every later value folded in, so a one-attribute key hashes
// as colHash alone — tables, spill frames and filter bits of
// single-predicate stores are what they were before keys were lists.
func keyHash(h, hv uint64) uint64 {
	return bits.RotateLeft64(h, 31)*0x9e3779b97f4a7c15 ^ hv
}

// hashKey hashes the tuple's values at the key's column positions (one
// per key attribute, all present).
func hashKey(tp *tuple.Tuple, pos []int) uint64 {
	h := colHash(tp.At(pos[0]))
	for _, p := range pos[1:] {
		h = keyHash(h, colHash(tp.At(p)))
	}
	return h
}

// keyFilter is the negative filter of one colIndex table — the only
// filter in this package: a blocked Bloom filter with one 64-bit block
// per 8 table slots (1 B per slot, at least 10.7 bits per distinct key
// hash at the table's 3/4 load ceiling). A hash sets two bits inside the
// ONE block of its home slot, chosen by the top twelve hash bits, which
// the table position (the low bits) never uses. It is a pure function
// of the set of hashes in the table and the table's size: no statistics
// size it, no seal event builds it, and a negative is definitive — no
// row is chained under the hash. The zero value admits nothing.
type keyFilter []uint64

func filterBits(h uint64) uint64 { return 1<<(h>>58) | 1<<(h>>52&63) }

func (f keyFilter) add(h uint64) { f[h>>3&uint64(len(f)-1)] |= filterBits(h) }

func (f keyFilter) may(h uint64) bool {
	if len(f) == 0 {
		return false
	}
	bits := filterBits(h)
	return f[h>>3&uint64(len(f)-1)]&bits == bits
}

func (f keyFilter) bytes() int64 { return int64(cap(f)) * 8 }

// colIndex is the one local index implementation, shared by both
// backends: an open-addressed hash table from key hash to the head of
// an int32 row chain, over whatever row numbering the owner uses (a
// segment's columns, a container's entries). Rows whose schema lacks
// any key attribute are never linked. Chains are exact per 64-bit hash;
// distinct keys colliding on the full hash share a chain and are
// separated by the visitor's value re-check. filt covers exactly the
// hashes the table holds, on every insert — an open epoch's index is
// filtered like a sealed one's — so find dismisses a hash the table
// cannot hold from one word, without touching the table.
type colIndex struct {
	key indexKey
	// filt sits beside the key on the struct's first cache line: resolving
	// the index and rejecting a hash touch nothing else of it.
	filt   keyFilter // one block per 8 slots over the occupied slots' hashes
	heads  []int32   // power-of-two table: first row of the chain, -1 empty
	tails  []int32   // last row of the chain (append point)
	hashes []uint64  // hash occupying each slot
	used   int       // occupied slots
	next   []int32   // per row: next row in the same chain, -1 end

	// Schema → column positions of the key attributes (nil: one is
	// missing, so rows of that schema are in no chain), monomorphic
	// inline slot over a map fallback (stored schemas are almost always
	// stable per store).
	lastSch  *tuple.Schema
	lastPos  []int
	posCache map[*tuple.Schema][]int
}

func (ix *colIndex) resident() int64 {
	return colIdxBase + int64(cap(ix.heads)+cap(ix.tails))*4 + int64(cap(ix.hashes))*8 + ix.filt.bytes() +
		int64(cap(ix.next))*4 + int64(len(ix.posCache)*(8+8*len(ix.key.attrs)))
}

// posFor resolves the key attributes' column positions in the schema.
func (ix *colIndex) posFor(s *tuple.Schema) []int {
	if s == ix.lastSch {
		return ix.lastPos
	}
	p, ok := ix.posCache[s]
	if !ok {
		p = allPositions(s, ix.key.attrs)
		if ix.posCache == nil {
			ix.posCache = make(map[*tuple.Schema][]int, 2)
		}
		ix.posCache[s] = p
	}
	ix.lastSch, ix.lastPos = s, p
	return p
}

// find returns the slot holding hash h, or ok=false on a miss. A miss
// the filter answered (filtered) never touched the table.
func (ix *colIndex) find(h uint64) (slot int, ok, filtered bool) {
	if !ix.filt.may(h) {
		return 0, false, true
	}
	mask := uint64(len(ix.heads) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if ix.heads[i] < 0 {
			return 0, false, false
		}
		if ix.hashes[i] == h {
			return int(i), true, false
		}
	}
}

// addRow appends the row to its chain's tail — chains keep insertion
// order on both backends, so probe-result order (and everything
// downstream of it, including checkpoint bytes) is backend-independent.
// The table grows at 3/4 load.
func (ix *colIndex) addRow(tp *tuple.Tuple, row int32) {
	pos := ix.posFor(tp.Schema)
	if pos == nil {
		ix.next = append(ix.next, -1)
		return
	}
	h := hashKey(tp, pos)
	if 4*(ix.used+1) > 3*len(ix.heads) {
		ix.grow()
	}
	mask := uint64(len(ix.heads) - 1)
	i := h & mask
	for ix.heads[i] >= 0 && ix.hashes[i] != h {
		i = (i + 1) & mask
	}
	ix.next = append(ix.next, -1)
	if ix.heads[i] < 0 {
		ix.used++
		ix.hashes[i] = h
		ix.heads[i] = row
		ix.filt.add(h)
	} else {
		ix.next[ix.tails[i]] = row
	}
	ix.tails[i] = row
}

// grow doubles the table, re-placing chain heads and tails by their
// stored slot hashes — chains themselves are untouched — and rebuilds
// the filter from the same hashes at the new size.
func (ix *colIndex) grow() {
	n := len(ix.heads) * 2
	if n < 16 {
		n = 16
	}
	oldHeads, oldTails, oldHashes := ix.heads, ix.tails, ix.hashes
	ix.heads = make([]int32, n)
	ix.tails = make([]int32, n)
	ix.hashes = make([]uint64, n)
	ix.filt = make(keyFilter, n/8)
	for i := range ix.heads {
		ix.heads[i] = -1
	}
	mask := uint64(n - 1)
	for i, head := range oldHeads {
		if head < 0 {
			continue
		}
		h := oldHashes[i]
		j := h & mask
		for ix.heads[j] >= 0 {
			j = (j + 1) & mask
		}
		ix.heads[j] = head
		ix.tails[j] = oldTails[i]
		ix.hashes[j] = h
		ix.filt.add(h)
	}
}

// reset empties the table, filter and chains, keeping every backing
// array.
func (ix *colIndex) reset() {
	for i := range ix.heads {
		ix.heads[i] = -1
	}
	clear(ix.filt)
	ix.used = 0
	ix.next = ix.next[:0]
}

// indexSet is the local indices over one epoch's rows: a small slice —
// a store is probed under one or two keys — so lookup, insert
// maintenance and byte accounting are short loops with no map on the
// probe path.
type indexSet []*colIndex

func (xs indexSet) get(key *indexKey) *colIndex {
	for _, ix := range xs {
		if ix.key.id == key.id {
			return ix
		}
	}
	return nil
}

// add appends an empty index under the key; the caller links its rows.
// The key is copied: an index must not pin the rule plan it was first
// probed under across re-optimizations.
func (xs *indexSet) add(key *indexKey) *colIndex {
	ix := &colIndex{key: *key}
	*xs = append(*xs, ix)
	return ix
}

func (xs indexSet) addRow(tp *tuple.Tuple, row int32) {
	for _, ix := range xs {
		ix.addRow(tp, row)
	}
}

func (xs indexSet) resident() int64 {
	var b int64
	for _, ix := range xs {
		b += ix.resident()
	}
	return b
}

// colSegment is one epoch's ring slot. Hot, it is the epoch's flat
// storage: parallel columns plus the segment's local indices. Cold, the
// columns are empty and the rows live in the spill file behind stub;
// epoch, minTS and maxTS stay resident either way, so window cuts
// dismiss a cold slot exactly like a hot one.
type colSegment struct {
	epoch   int64
	tups    []*tuple.Tuple
	seqs    []uint64
	ts      []int64 // event times, so prune never dereferences tuples
	payload int64   // Σ tuple.MemSize
	minTS   int64
	maxTS   int64
	indices indexSet

	// stub locates the epoch's frame in the spill file. It is set while
	// the slot is cold, and stays on a promoted slot for as long as the
	// frame is byte-valid — until an insert or a compaction changes the
	// epoch — so re-demoting an unchanged epoch revives the frame
	// instead of rewriting it. Without that, a probe/promote/demote
	// cycle under a tight hot budget appends identical bytes on every
	// swing and the spill file grows without bound.
	stub *coldStub
	cold bool
}

func newColSegment(ep int64) *colSegment {
	return &colSegment{epoch: ep, minTS: int64(^uint64(0) >> 1), maxTS: int64(-1) << 62}
}

// rows is the epoch's tuple count, wherever the tuples live.
func (s *colSegment) rows() int {
	if s.cold {
		return s.stub.count
	}
	return len(s.tups)
}

// resident is the slot's in-memory footprint: a cold slot costs its
// stub and filters, not its spilled payload.
func (s *colSegment) resident() int64 {
	if s.cold {
		return coldStubBase + s.stub.filterBytes
	}
	b := colSegBase + s.payload + int64(cap(s.tups)+cap(s.seqs)+cap(s.ts))*8
	return b + s.idxResident()
}

func (s *colSegment) idxResident() int64 {
	if s.cold {
		return s.stub.filterBytes
	}
	return s.indices.resident()
}

func (s *colSegment) add(tp *tuple.Tuple, seq uint64) {
	row := int32(len(s.tups))
	s.tups = append(s.tups, tp)
	s.seqs = append(s.seqs, seq)
	t := int64(tp.TS)
	s.ts = append(s.ts, t)
	if t < s.minTS {
		s.minTS = t
	}
	if t > s.maxTS {
		s.maxTS = t
	}
	s.payload += int64(tp.MemSize())
	s.indices.addRow(tp, row)
}

// indexFor returns (building on first use) the index under the key.
func (s *colSegment) indexFor(key *indexKey) (ix *colIndex, built bool) {
	if ix = s.indices.get(key); ix != nil {
		return ix, false
	}
	ix = s.indices.add(key)
	for row, tp := range s.tups {
		ix.addRow(tp, int32(row))
	}
	return ix, true
}

// scanBatch is the batch chain walk: for every probe of the vector
// still in window reach of this segment (and admitted by bl, the cold
// slot's key filter when the segment was read through from disk; nil
// for a hot slot) it gathers the hit chain into a selection vector off
// the flat seq column and hands the surviving rows to the batch's tight
// concrete evaluation loop — no per-candidate interface dispatch. The
// order of checks per probe is window cut, filter, table: a lookup a
// filter spared — the stub's or the index's own — is counted in
// pb.rejects and is neither a hit nor a miss. hits and misses count the
// probes that reached the table by whether they found rows to evaluate.
func (s *colSegment) scanBatch(key *indexKey, pb *probeBatch, bl keyFilter) (idxDelta, hits, misses int64) {
	ix, built := s.indexFor(key)
	if built {
		idxDelta = ix.resident()
	}
	cuts := pb.cuts
	for i, h := range pb.hashes {
		if s.maxTS < cuts[i] {
			continue // out of this probe's window reach
		}
		if bl != nil && !bl.may(h) {
			pb.rejects++ // definitive: no stored row hashes to h under the key
			continue
		}
		slot, ok, filtered := ix.find(h)
		if !ok {
			if filtered {
				pb.rejects++
			} else {
				misses++
			}
			continue
		}
		sel := pb.sel[:0]
		maxSeq := pb.maxSeqs[i]
		chain := 0 // every chain row is a candidate, as in the container's visit
		for row := ix.heads[slot]; row >= 0; row = ix.next[row] {
			chain++
			if s.seqs[row] < maxSeq {
				sel = append(sel, row)
			}
		}
		pb.sel = sel
		pb.cands += int64(chain)
		if len(sel) == 0 {
			misses++
			continue
		}
		hits++
		pb.evalRows(i, s, sel)
	}
	return idxDelta, hits, misses
}

// compact drops rows with event time below the cutoff, rebuilding the
// indices over the surviving rows with their arrays reused.
func (s *colSegment) compact(cut int64) (removed int) {
	kept := 0
	minTS, maxTS := int64(^uint64(0)>>1), int64(-1)<<62
	for i := 0; i < len(s.tups); i++ {
		if s.ts[i] < cut {
			s.payload -= int64(s.tups[i].MemSize())
			continue
		}
		s.tups[kept] = s.tups[i]
		s.seqs[kept] = s.seqs[i]
		s.ts[kept] = s.ts[i]
		if s.ts[kept] < minTS {
			minTS = s.ts[kept]
		}
		if s.ts[kept] > maxTS {
			maxTS = s.ts[kept]
		}
		kept++
	}
	removed = len(s.tups) - kept
	if removed == 0 {
		return 0
	}
	for i := kept; i < len(s.tups); i++ {
		s.tups[i] = nil // dropped tuples must be collectable
	}
	s.tups = s.tups[:kept]
	s.seqs = s.seqs[:kept]
	s.ts = s.ts[:kept]
	s.minTS, s.maxTS = minTS, maxTS
	for _, ix := range s.indices {
		ix.reset()
		for row, tp := range s.tups {
			ix.addRow(tp, int32(row))
		}
	}
	return removed
}

// columnarState implements stateBackend over an epoch-sorted ring of
// columnar segments (the ring bookkeeping is state.go's epochRing).
// The spill tier's half — demotion, promotion, the read-through loader —
// is in spill.go. Like every backend it is task-confined; spilled alone
// is atomic because the TaskGauges sampler reads it cross-goroutine.
type columnarState struct {
	ring epochRing[colSegment]

	store   spillStore   // lazy: no file until the first demotion
	spilled atomic.Int64 // live on-disk payload bytes of this task
	pending int          // cold slots holding a read-through decode
	// probed is every index key ever probed on this task — the filters a
	// demoted epoch's stub gets.
	probed []indexKey
	encBuf []byte
	m      *Metrics    // the engine's tiering counters
	fail   func(error) // the engine's failure hook

	// testCrashAfterSpill, when set, runs in demoteOldest's crash window:
	// after the segment is durable in the spill file, before the slot
	// turns cold (spill_test.go).
	testCrashAfterSpill func()
}

// newColumnarState builds an empty store that spills under spillDir
// ("" = the OS temp directory), counts tier transitions in m, and
// reports spill I/O failures through fail.
func newColumnarState(spillDir string, m *Metrics, fail func(error)) *columnarState {
	return &columnarState{
		ring:  newEpochRing[colSegment](),
		store: spillStore{dir: spillDir},
		m:     m,
		fail:  fail,
	}
}

func (c *columnarState) insert(tp *tuple.Tuple, seq uint64, epoch int64) (delta, idxDelta int64) {
	// A segment created by this insert is charged in full (before=0).
	var before, idxBefore int64
	s, created := c.ring.at(epoch, newColSegment)
	if !created {
		before, idxBefore = s.resident(), s.idxResident()
		if s.cold {
			// A late arrival into a demoted epoch: slots are wholly hot or
			// wholly cold, so the epoch is promoted before the row lands.
			c.promote(s)
		}
	}
	s.add(tp, seq)
	s.stub = nil // a spilled frame of this epoch no longer matches
	return s.resident() - before, s.idxResident() - idxBefore
}

func (c *columnarState) noteProbed(key *indexKey) {
	for i := range c.probed {
		if c.probed[i].id == key.id {
			return
		}
	}
	c.probed = append(c.probed, *key)
}

// probeScanBatch is the vectorized probe scan: one pass over the ring
// for the whole probe vector, whose key hashes the batch computed once
// per probe (probeBatch.add). A slot whose max event time precedes every
// probe's cutoff is dismissed whole before any hash work — every tuple
// in it is older than the probes' window reach (task.probeCut's
// soundness argument). A hot slot runs the segment's batch chain walk
// directly; a cold slot is first tried against its key filter and,
// surviving that, read through from the spill file and walked the same
// way — candidate order does not depend on where an epoch lives. The
// result log comes out segment-major; probeBatch.group restores the
// probe-major order the forward path needs.
func (c *columnarState) probeScanBatch(key *indexKey, pb *probeBatch) (idxDelta int64) {
	c.noteProbed(key)
	for _, s := range c.ring.vals {
		if s.maxTS < pb.minCut {
			continue // out of every probe's window reach
		}
		if !s.cold {
			d, _, _ := s.scanBatch(key, pb, nil)
			idxDelta += d
			continue
		}
		bl := s.stub.filterFor(key) // nil: key first probed after the demotion
		if !s.admitsAny(pb, bl) {
			continue
		}
		ls := c.load(s, true)
		if ls == nil {
			continue // engine already failing
		}
		// An index built on the decoded segment is charged with the
		// slot's promotion (full resident cost, indices included).
		_, hits, misses := ls.scanBatch(key, pb, bl)
		c.m.coldProbeHits.Add(hits)
		c.m.coldProbeMisses.Add(misses)
	}
	return idxDelta
}

func (c *columnarState) prune(cut tuple.Time) (removed int, delta, idxDelta int64) {
	w := int64(cut)
	dropped := false
	for i, s := range c.ring.vals {
		if s.minTS >= w {
			continue // wholly inside the window: untouched, hot or cold
		}
		before, idxBefore := s.resident(), s.idxResident()
		if s.maxTS < w {
			// Wholly expired: the slot leaves the ring. A cold one is a
			// tombstone — its file bytes stay dead until clear/close.
			removed += s.rows()
			delta -= before
			idxDelta -= idxBefore
			if s.cold {
				c.dropSpilled(s.stub)
			}
			c.ring.drop(i)
			dropped = true
			continue
		}
		// Boundary slot: in-epoch remap, on the promoted segment when the
		// cut lands inside a cold epoch.
		if s.cold {
			c.promote(s)
		}
		if r := s.compact(w); r > 0 {
			removed += r
			s.stub = nil
		}
		if len(s.tups) == 0 {
			delta -= before
			idxDelta -= idxBefore
			c.ring.drop(i)
			dropped = true
			continue
		}
		delta += s.resident() - before
		idxDelta += s.idxResident() - idxBefore
	}
	if dropped {
		c.ring.compact()
	}
	return removed, delta, idxDelta
}

func (c *columnarState) epochs() []int64 { return c.ring.eps }

func (c *columnarState) epochLen(epoch int64) int {
	if s := c.ring.get(epoch); s != nil {
		return s.rows()
	}
	return 0
}

// forEach visits a cold epoch through a transient decode that is NOT
// kept for promotion: checkpoint walks are read-only and must not churn
// the tiers. A spill read failure fails the engine and visits nothing —
// the checkpointer's caller sees the failure, not a short snapshot
// presented as complete.
func (c *columnarState) forEach(epoch int64, fn func(tp *tuple.Tuple, seq uint64)) {
	s := c.ring.get(epoch)
	if s != nil && s.cold {
		s = c.load(s, false)
	}
	if s == nil {
		return
	}
	for i := range s.tups {
		fn(s.tups[i], s.seqs[i])
	}
}

// dropOldest sheds the oldest epoch, hot or cold; evicting a cold one
// frees just its stub.
func (c *columnarState) dropOldest() (epoch int64, removed int, delta, idxDelta int64, ok bool) {
	ep, s, ok := c.ring.dropHead()
	if !ok {
		return 0, 0, 0, 0, false
	}
	if s.cold {
		c.dropSpilled(s.stub)
	}
	return ep, s.rows(), -s.resident(), -s.idxResident(), true
}

func (c *columnarState) clear() (removed int, delta, idxDelta int64) {
	for _, s := range c.ring.vals {
		removed += s.rows()
		delta -= s.resident()
		idxDelta -= s.idxResident()
	}
	c.ring.clear()
	c.pending = 0
	if freed := c.spilled.Swap(0); freed != 0 {
		c.m.spilledBytes.Add(-freed)
	}
	if err := c.store.reset(); err != nil {
		c.fail(err)
	}
	return removed, delta, idxDelta
}

func (c *columnarState) bytes() int64 {
	var b int64
	for _, s := range c.ring.vals {
		b += s.resident()
	}
	return b
}

func (c *columnarState) indexBytes() int64 {
	var b int64
	for _, s := range c.ring.vals {
		b += s.idxResident()
	}
	return b
}
