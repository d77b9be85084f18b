package runtime

// columnarState is the epoch-ring columnar state backend (DESIGN.md
// §10). Where the container design keeps one []entry slice of
// (tuple, seq) pairs per epoch, the columnar layout stores one segment
// per epoch by value, as flat parallel columns: sequence number, event
// time, a per-row ordinal into the segment's short schema list, and per
// column position a kind column and an int64 payload column (Int, Float
// bits, Bool) — plus a string column that exists only once a String
// value lands at that position. No stored row is a pointer: the
// collector traces the string columns alone, and a probe reads the cells
// it compares beside the row id instead of chasing a *tuple.Tuple to its
// values. A tuple is built only for a row that matched (carved from an
// arena as part of the join result, batchprobe.go) and for a row that
// restore or recovery inserts (LoadTaskEpoch); a decode (a spill read, a
// snapshot, a checkpoint record) pushes its cells straight onto columns
// (codec.go). Both backends hang the same index kernel off their rows:
// colIndex (this file), an open-addressed uint64-hash table whose
// posting lists are int32 chains threaded through a single flat array,
// keyed by ALL stored attributes of the probing rule (plan.go's
// indexKey). Consequences:
//
//   - insert appends one cell per column and pushes one chain head per
//     index: no map writes, no per-key slice growth, no per-row object;
//   - probe walks a chain of int32 row ids: the index is a candidate
//     filter bucketed by the 64-bit hash of the whole key, and the
//     probe's evaluation loop re-checks every predicate by value on the
//     columns (state.go's index contract);
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
//   - eviction (shedding at StateLimitBytes) is a ring pop;
//   - a hot segment whose rows leave memory (pruned, evicted or
//     demoted) hands its column arrays to the task's next new segment,
//     and its indices to the task's index pool (indexPool, shared with
//     the container backend), which the next epochs' indices grow
//     from, so steady-state inserts grow no columns and no index tables;
//   - the checkpoint walk and the spill tier encode a segment straight
//     from its columns (codec.go), in the bytes its tuples would encode
//     to.
//
// Iteration is deterministic: segments ascend by epoch, chains follow
// insertion order within a segment (rows append at the chain tail) — a
// pure function of the insert/prune history, never of Go map order, and
// the same on both backends.
//
// Spill tier: every ring slot is wholly hot (the columns above) or
// wholly cold (a coldStub locating the epoch's frame in the task's
// spill file and holding the key filters the epoch's indices had,
// spill.go). Demotion and promotion flip a slot in place, so ring
// order — and with it candidate order, checkpoint walks, and everything
// downstream — never depends on where an epoch lives. A probe reads a
// cold slot through a transient decode and leaves it cold; only a row
// into the epoch or a prune cut inside it promotes the slot. The task
// demotes only under a hot budget (Config.StateHotBytes); without one
// every slot stays hot and no spill file is ever created.

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"clash/internal/tuple"
)

// Structural cost estimates (bytes) for the columnar accounting; column
// arrays are charged by capacity, string bytes by length.
const (
	colSegBase = 192 // segment struct: slice headers of rows, schemas, columns and indices
	colHeader  = 72  // one column struct: three slice headers
	colIdxBase = 96  // colIndex struct + position cache
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
	// stable per store). The positions are carved from posBuf, which a
	// pooled index keeps, so the epoch that reuses it resolves its
	// schemas without allocating.
	lastSch  *tuple.Schema
	lastPos  []int
	posCache map[*tuple.Schema][]int
	posBuf   []int

	// feed is the store filter of the index's key (storefilter.go) while
	// the index belongs to a hot epoch of a live store, nil otherwise
	// (cold read-through decodes, throwaway builds): every hash new to
	// the table is fed to it, so no row is hashed twice.
	feed *storeFilter
	// pool is the task's index pool the table grows from and returns its
	// outgrown tables to; nil for a throwaway index, which allocates.
	pool *indexPool
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
		p = ix.positions(s)
		if ix.posCache == nil {
			ix.posCache = make(map[*tuple.Schema][]int, 2)
		}
		ix.posCache[s] = p
	}
	ix.lastSch, ix.lastPos = s, p
	return p
}

// positions resolves the key attributes' column positions in the schema
// into posBuf's free tail (nil, taking none of it: one is missing).
func (ix *colIndex) positions(s *tuple.Schema) []int {
	start, n := len(ix.posBuf), len(ix.key.attrs)
	ix.posBuf = slices.Grow(ix.posBuf, n)[:start+n]
	p := ix.posBuf[start : start+n : start+n]
	for i, a := range ix.key.attrs {
		if p[i] = s.Index(a); p[i] < 0 {
			ix.posBuf = ix.posBuf[:start]
			return nil
		}
	}
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

// addRow links the tuple stored as the given row, or leaves the row out
// of every chain when its schema lacks a key attribute.
func (ix *colIndex) addRow(tp *tuple.Tuple, row int32) {
	if pos := ix.posFor(tp.Schema); pos != nil {
		ix.link(hashKey(tp, pos), row)
	} else {
		ix.next = append(ix.next, -1)
	}
}

// link appends the row to the tail of hash h's chain — chains keep
// insertion order on both backends, so probe-result order (and
// everything downstream of it, including checkpoint bytes) is
// backend-independent. The table grows at 3/4 load.
func (ix *colIndex) link(h uint64, row int32) {
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
		if ix.feed != nil {
			ix.feed.add(h)
		}
	} else {
		ix.next[ix.tails[i]] = row
	}
	ix.tails[i] = row
}

// grow doubles the table, re-placing chain heads and tails by their
// stored slot hashes — chains themselves are untouched — and rebuilds
// the filter from the same hashes at the new size. The new table comes
// from the index's pool when it holds one of that size, and the
// outgrown one goes back to it.
func (ix *colIndex) grow() {
	old := tableSet{ix.heads, ix.tails, ix.hashes, ix.filt}
	t := ix.pool.table(max(2*len(old.heads), 16))
	ix.heads, ix.tails, ix.hashes, ix.filt = t.heads, t.tails, t.hashes, t.filt
	mask := uint64(len(t.heads) - 1)
	for i, head := range old.heads {
		if head < 0 {
			continue
		}
		h := old.hashes[i]
		j := h & mask
		for t.heads[j] >= 0 {
			j = (j + 1) & mask
		}
		t.heads[j] = head
		t.tails[j] = old.tails[i]
		t.hashes[j] = h
		t.filt.add(h)
	}
	ix.pool.put(old)
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

// poolIndices is how many released colIndex structs a pool keeps: an
// epoch holds an index per probed key, and a store is probed under one
// or two.
const poolIndices = 4

// poisonRow is the chain head a poisoned table holds in every occupied
// slot: past the rows of any epoch.
const poisonRow = math.MaxInt32

// tableSet is one colIndex table at one size: the slot arrays and the
// filter, which is nil in a set whose filter went to a cold stub.
type tableSet struct {
	heads, tails []int32
	hashes       []uint64
	filt         keyFilter
}

// poison marks a released table for any reader still holding it: the
// filter admits every hash, and every occupied slot's chain head lies
// past the rows, so a lookup that finds its hash panics on the chain
// walk instead of walking the chains of the epoch that reuses the table.
// Empty slots stay empty, so a lookup of an absent hash still ends.
func (t tableSet) poison() {
	for i, head := range t.heads {
		if head >= 0 {
			t.heads[i] = poisonRow
		}
	}
	for i := range t.filt {
		t.filt[i] = ^uint64(0)
	}
}

// indexPool recycles the indices of a task's dead epochs (DESIGN.md
// §10): the tables an index outgrows or leaves behind, at most one set
// per power-of-two size class, and a few index structs whose position
// caches are cleared but keep their buckets and their positions' array.
// An epoch's index grows into it one class at a time, so every table has
// exactly the size growing afresh gives it, and the row chains
// (colIndex.next) are never pooled:
// what an index is charged does not depend on the pool. The pool is
// uncharged, like columnarState.spare, since no row lives in it; it
// holds at most one table of each size up to the task's largest, about
// twice that table's bytes. Each state backend owns one; an index
// without a pool (a throwaway build) allocates its tables.
type indexPool struct {
	sets []tableSet  // sets[k] has 16<<k slots, or is empty
	free []*colIndex // released structs, reset
}

// sizeClass is the class of an n-slot table, n a power of two ≥ 16.
func sizeClass(n int) int { return bits.TrailingZeros(uint(n)) - 4 }

// table returns an empty n-slot table: the pool's of that size if it has
// one, else a new one.
func (p *indexPool) table(n int) tableSet {
	var t tableSet
	if k := sizeClass(n); p != nil && k < len(p.sets) {
		t, p.sets[k] = p.sets[k], tableSet{}
	}
	if t.heads == nil {
		t = tableSet{heads: make([]int32, n), tails: make([]int32, n), hashes: make([]uint64, n)}
	}
	if t.filt == nil {
		t.filt = make(keyFilter, n/8)
	} else {
		clear(t.filt)
	}
	for i := range t.heads {
		t.heads[i] = -1
	}
	return t
}

// put keeps a table no index holds any more, unless the pool has one of
// its size already. Tails and hashes are left as they are: an index
// reads them only at a slot whose head is set. Released tables are
// poisoned in race builds and in this package's tests
// (tuple.PoisonRecycled).
func (p *indexPool) put(t tableSet) {
	if p == nil || t.heads == nil {
		return
	}
	if tuple.PoisonRecycled {
		t.poison()
	}
	k := sizeClass(len(t.heads))
	for len(p.sets) <= k {
		p.sets = append(p.sets, tableSet{})
	}
	if p.sets[k].heads == nil {
		p.sets[k] = t
	}
}

// index returns an empty index under the key, on a released struct when
// the pool has one. The key is copied: an index must not pin the rule
// plan it was first probed under across re-optimizations.
func (p *indexPool) index(key *indexKey) *colIndex {
	if n := len(p.free); n > 0 {
		ix := p.free[n-1]
		p.free = p.free[:n-1]
		ix.key, ix.pool = *key, p
		return ix
	}
	return &colIndex{key: *key, pool: p}
}

// release takes back the index of an epoch whose rows left memory, or of
// a retired key: its table, and its struct reset. The caller has charged
// the index off; it must not be read again. An index whose filter went
// to a cold stub has filt nil, and the stub keeps the filter.
func (p *indexPool) release(ix *colIndex) {
	p.put(tableSet{ix.heads, ix.tails, ix.hashes, ix.filt})
	clear(ix.posCache)
	*ix = colIndex{posCache: ix.posCache, posBuf: ix.posBuf[:0]}
	if len(p.free) < poolIndices {
		p.free = append(p.free, ix)
	}
}

// releaseAll releases every index of a dead epoch.
func (p *indexPool) releaseAll(xs indexSet) {
	for _, ix := range xs {
		p.release(ix)
	}
}

// indexSet is the local indices over one epoch's rows: a small slice —
// a store is probed under one or two keys — so lookup, insert
// maintenance and byte accounting are short loops with no map on the
// probe path.
type indexSet []*colIndex

func (xs indexSet) get(key *indexKey) *colIndex {
	for _, ix := range xs {
		if ix.key.num == key.num {
			return ix
		}
	}
	return nil
}

// add appends an empty index under the key, from the pool; the caller
// links its rows.
func (xs *indexSet) add(key *indexKey, pool *indexPool) *colIndex {
	ix := pool.index(key)
	*xs = append(*xs, ix)
	return ix
}

// remove takes the index under the key out of the set and returns it.
func (xs *indexSet) remove(key *indexKey) *colIndex {
	i := slices.IndexFunc(*xs, func(ix *colIndex) bool { return ix.key.num == key.num })
	ix := (*xs)[i]
	*xs = slices.Delete(*xs, i, i+1)
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

// column is one column position of a segment's rows, by value: every
// row's kind, its 64-bit payload (Value.Int: the Int, the Float bits,
// Bool 0/1; zero for Null and String), and its string — strs is empty
// until a String lands at this position, then exactly as long as the
// other two. A row whose schema is narrower than the segment holds Null
// at the positions it lacks.
type column struct {
	kinds []tuple.Kind
	nums  []int64
	strs  []string
}

func (c *column) bytes() int64 {
	return int64(cap(c.kinds)) + int64(cap(c.nums))*8 + int64(cap(c.strs))*16
}

// reset empties the column to rows Null cells, keeping its arrays.
func (c *column) reset(rows int) {
	c.kinds = append(c.kinds[:0], make([]tuple.Kind, rows)...)
	c.nums = append(c.nums[:0], make([]int64, rows)...)
	c.strs = c.strs[:0]
}

// push appends one cell. The first String value creates the string
// column, padded with "" for the rows before it.
func (c *column) push(v tuple.Value) {
	k := v.Kind()
	if k == tuple.String || len(c.strs) != 0 {
		for len(c.strs) < len(c.kinds) {
			c.strs = append(c.strs, "")
		}
		c.strs = append(c.strs, v.Str())
	}
	c.kinds = append(c.kinds, k)
	c.nums = append(c.nums, v.Int())
}

// value returns the row's cell — bit for bit the value that was pushed.
func (c *column) value(row int) tuple.Value {
	k := c.kinds[row]
	if k == tuple.String {
		return tuple.MakeValue(k, 0, c.strs[row])
	}
	return tuple.MakeValue(k, c.nums[row], "")
}

// eq reports value(row) == v without building the value.
func (c *column) eq(row int32, v tuple.Value) bool {
	k := c.kinds[row]
	return k == v.Kind() && c.nums[row] == v.Int() && (k != tuple.String || c.strs[row] == v.Str())
}

// move copies row src's cell over row dst's (in-place compaction).
func (c *column) move(dst, src int) {
	c.kinds[dst], c.nums[dst] = c.kinds[src], c.nums[src]
	if len(c.strs) != 0 {
		c.strs[dst] = c.strs[src]
	}
}

// truncate keeps the first n rows; dropped strings become collectable.
func (c *column) truncate(n int) {
	c.kinds, c.nums = c.kinds[:n], c.nums[:n]
	if len(c.strs) != 0 {
		clear(c.strs[n:])
		c.strs = c.strs[:n]
	}
}

// colSegment is one epoch's ring slot. Hot, it is the epoch's flat
// storage: the row columns plus the segment's local indices. Cold, the
// columns are empty and the rows live in the spill file behind stub;
// epoch, minTS and maxTS stay resident either way, so window cuts
// dismiss a cold slot exactly like a hot one.
type colSegment struct {
	epoch int64
	seqs  []uint64
	ts    []int64  // event times (Tuple.TS), so prune reads no cell
	sch   []uint16 // per row: its schema, as an index into schemas
	// schemas are the distinct row schemas by attribute names, in order
	// of first arrival; cols is as wide as the widest of them.
	schemas  []*tuple.Schema
	cols     []column
	strBytes int64 // Σ length of the strings the columns hold
	minTS    int64
	maxTS    int64
	indices  indexSet

	// stub locates the epoch's frame in the spill file. It is set
	// exactly while the slot is cold: a hot slot holds none.
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
	return len(s.seqs)
}

// resident is the slot's in-memory footprint: a hot slot costs its
// arrays by capacity (including column arrays kept beyond its width),
// its string bytes and its indices; a cold slot costs its stub and
// filters, not its spilled payload.
func (s *colSegment) resident() int64 { return s.rowBytes() + s.idxResident() }

// rowBytes is the footprint beside the indices (or the stub's filters).
func (s *colSegment) rowBytes() int64 {
	if s.cold {
		return coldStubBase
	}
	b := colSegBase + int64(cap(s.seqs)+cap(s.ts)+cap(s.schemas))*8 + int64(cap(s.sch))*2 + s.strBytes
	for _, c := range s.cols[:cap(s.cols)] {
		b += colHeader + c.bytes()
	}
	return b
}

func (s *colSegment) idxResident() int64 {
	if s.cold {
		return s.stub.filterBytes
	}
	return s.indices.resident()
}

// ord returns the schema's row ordinal, listing it (and widening the
// columns to it) on first sight. Schemas are told apart by attribute
// names: joined tuples of one shape arrive under one *Schema per
// producing task. An epoch holds at most maxSchemas of them — the
// engine's stores hold a handful, and the decoders refuse larger tables.
func (s *colSegment) ord(sc *tuple.Schema) uint16 {
	for i, x := range s.schemas {
		if x == sc {
			return uint16(i)
		}
	}
	for i, x := range s.schemas {
		if slices.Equal(x.Names(), sc.Names()) {
			return uint16(i)
		}
	}
	if len(s.schemas) == maxSchemas {
		panic("runtime: more distinct schemas in one epoch than a row ordinal holds")
	}
	s.schemas = append(s.schemas, sc)
	for n := len(s.cols); n < sc.Len(); n++ {
		if n < cap(s.cols) {
			s.cols = s.cols[:n+1] // a recycled column: reuse its arrays
		} else {
			s.cols = append(s.cols, column{})
		}
		s.cols[n].reset(len(s.seqs))
	}
	return uint16(len(s.schemas) - 1)
}

// add appends the tuple as a row and links it into every index.
func (s *colSegment) add(tp *tuple.Tuple, seq uint64) {
	row := int32(len(s.seqs))
	s.push(tp.Schema, int64(tp.TS), seq, tp.Values)
	s.indices.addRow(tp, row)
}

// push appends one row of the schema — its sequence number, event time
// and one cell per column position, Null past the row's arity — without
// touching the indices.
func (s *colSegment) push(sc *tuple.Schema, t int64, seq uint64, vals []tuple.Value) {
	s.sch = append(s.sch, s.ord(sc))
	s.seqs = append(s.seqs, seq)
	s.ts = append(s.ts, t)
	if t < s.minTS {
		s.minTS = t
	}
	if t > s.maxTS {
		s.maxTS = t
	}
	for p := range s.cols {
		var v tuple.Value // Null past the row's arity
		if p < len(vals) {
			v = vals[p]
		}
		s.cols[p].push(v)
		s.strBytes += int64(len(v.Str()))
	}
}

// fill writes the row's cells into dst, one per column position from 0.
func (s *colSegment) fill(row int, dst []tuple.Value) {
	for p := range dst {
		dst[p] = s.cols[p].value(row)
	}
}

// linkRows chains every row into the index in row order, hashing the
// key cells off the columns exactly as hashKey hashes a tuple's.
func (s *colSegment) linkRows(ix *colIndex) {
	for row, o := range s.sch {
		pos := ix.posFor(s.schemas[o])
		if pos == nil {
			ix.next = append(ix.next, -1)
			continue
		}
		h := colHash(s.cols[pos[0]].value(row))
		for _, p := range pos[1:] {
			h = keyHash(h, colHash(s.cols[p].value(row)))
		}
		ix.link(h, int32(row))
	}
}

// indexFor returns (building on first use, from the pool) the index
// under the key.
func (s *colSegment) indexFor(key *indexKey, pool *indexPool) (ix *colIndex, built bool) {
	if ix = s.indices.get(key); ix != nil {
		return ix, false
	}
	ix = s.indices.add(key, pool)
	s.linkRows(ix)
	return ix, true
}

// copyTo copies the rows the checkpoint encoder reads — sequence
// numbers, event times, schema ordinals, schemas and every column's
// cells — into dst, reusing dst's arrays.
func (s *colSegment) copyTo(dst *colSegment) {
	n := len(s.seqs)
	dst.epoch = s.epoch
	dst.seqs = append(room(dst.seqs, cap(s.seqs)), s.seqs...)
	dst.ts = append(room(dst.ts, cap(s.ts)), s.ts[:n]...)
	dst.sch = append(room(dst.sch, cap(s.sch)), s.sch[:n]...)
	dst.schemas = append(dst.schemas[:0], s.schemas...)
	if w := len(s.cols); cap(dst.cols) < w {
		dst.cols = append(dst.cols[:cap(dst.cols)], make([]column, w-cap(dst.cols))...)
	}
	dst.cols = dst.cols[:len(s.cols)]
	for p := range s.cols {
		src, d := &s.cols[p], &dst.cols[p]
		d.kinds = append(room(d.kinds, cap(src.kinds)), src.kinds[:n]...)
		d.nums = append(room(d.nums, cap(src.nums)), src.nums[:n]...)
		d.strs = append(room(d.strs, cap(src.strs)), src.strs...)
	}
}

// room returns b emptied, with room for n elements: a copy array that
// is too small doubles at least. The copy asks for the source array's
// capacity, not its length — an epoch's arrays come from the spare of
// the largest epoch that left — so a copy slot that meets a young epoch
// and then a full one grows once, not once per doubling in between.
func room[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, 0, max(n, 2*cap(b)))
	}
	return b[:0]
}

// view is the segment as the checkpoint walk and the spill encoder read
// it: its rows in place, valid until the segment next changes.
func (s *colSegment) view() Segment {
	n := len(s.seqs)
	return Segment{Seqs: s.seqs[:n:n], cols: s}
}

// admitsAny reports whether any probe of the batch survives the slot's
// window cut (cuts: pb.hotCuts on a hot slot, pb.cuts on a cold one) and
// key filter bl (nil: no filter) — if none does, the batch skips the
// slot without a chain walk (or, cold, without touching disk), and every
// lookup the filter answered is counted as spared (an admitted slot's
// are counted by its scan).
func (s *colSegment) admitsAny(pb *probeBatch, cuts []int64, bl keyFilter) bool {
	var spared int64
	for i, h := range pb.hashes {
		if s.maxTS < cuts[i] {
			continue
		}
		if bl == nil || bl.may(h) {
			return true
		}
		spared++
	}
	pb.rejects += spared
	return false
}

// scanBatch is the batch chain walk over the segment's index ix: for
// every probe of the vector still in window reach of this segment (cuts,
// as in admitsAny: a probe the store filter answered is out of every hot
// slot's reach) and admitted by bl (the cold slot's key filter when the
// segment was read through from disk; nil for a hot slot) it gathers the
// hit chain into a selection vector off the flat seq column and hands
// the surviving rows to the batch's tight concrete evaluation loop — no
// per-candidate interface dispatch. The order of checks per probe is
// window cut, filter, table: a lookup a filter spared — the stub's or
// the index's own — is counted in pb.rejects and is neither a hit nor a
// miss. hits and misses count the probes that reached the table by
// whether they found rows to evaluate.
func (s *colSegment) scanBatch(ix *colIndex, pb *probeBatch, cuts []int64, bl keyFilter) (hits, misses int64) {
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
	return hits, misses
}

// compact drops rows with event time below the cutoff, moving the
// survivors down in every column and rebuilding the indices over them
// with their arrays reused.
func (s *colSegment) compact(cut int64) (removed int) {
	kept := 0
	minTS, maxTS := int64(^uint64(0)>>1), int64(-1)<<62
	for i, t := range s.ts {
		if t < cut {
			for p := range s.cols {
				if c := &s.cols[p]; len(c.strs) != 0 {
					s.strBytes -= int64(len(c.strs[i]))
				}
			}
			continue
		}
		s.seqs[kept], s.ts[kept], s.sch[kept] = s.seqs[i], t, s.sch[i]
		for p := range s.cols {
			s.cols[p].move(kept, i)
		}
		minTS, maxTS = min(minTS, t), max(maxTS, t)
		kept++
	}
	removed = len(s.seqs) - kept
	if removed == 0 {
		return 0
	}
	s.seqs, s.ts, s.sch = s.seqs[:kept], s.ts[:kept], s.sch[:kept]
	for p := range s.cols {
		s.cols[p].truncate(kept)
	}
	s.minTS, s.maxTS = minTS, maxTS
	for _, ix := range s.indices {
		feed := ix.feed
		ix.reset()
		ix.feed = nil // the survivors' hashes are in the store filter already
		s.linkRows(ix)
		ix.feed = feed
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
	// spare holds the column arrays of the largest hot segment whose rows
	// left memory (pruned, evicted or demoted) since the last new
	// segment, which starts on them. Uncharged: no row lives in it.
	spare colSegment
	// pool holds the index tables and structs of those segments and of
	// retired keys, for the indices that grow next. Uncharged likewise.
	pool indexPool

	store   spillStore   // lazy: no file until the first demotion
	spilled atomic.Int64 // live on-disk payload bytes of this task
	// probed is every index key ever probed on this task, each with its
	// store filter over the hot rows: every hot segment holds an index
	// under each of them, and a demoted epoch's stub takes their filters.
	probed probedKeys
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
	// A segment created by this insert is charged in full (before=0),
	// recycled column capacity included.
	var before, idxBefore, filters int64
	s := c.ring.get(epoch)
	if s == nil {
		s = c.newSegment(epoch)
		c.ring.put(epoch, s)
		filters = c.probed.open(&s.indices, &c.pool)
	} else {
		idxBefore = s.idxResident()
		before = s.rowBytes() + idxBefore
		if s.cold {
			// A late arrival into a demoted epoch: slots are wholly hot or
			// wholly cold, so the epoch is promoted before the row lands.
			c.promote(s)
		}
	}
	s.add(tp, seq)
	idx := s.idxResident()
	return s.rowBytes() + idx - before + filters, idx - idxBefore + filters
}

// newSegment starts an epoch's segment on the spare column arrays.
func (c *columnarState) newSegment(ep int64) *colSegment {
	s := newColSegment(ep)
	s.seqs, s.ts, s.sch, s.cols = c.spare.seqs, c.spare.ts, c.spare.sch, c.spare.cols
	c.spare = colSegment{}
	return s
}

// recycle takes back the arrays of a hot segment whose rows leave
// memory, or of a read-through decode after its scan: its indices go to
// the pool, and its column arrays become the spare when they are larger
// than the spare's. The segment must not be read again.
func (c *columnarState) recycle(s *colSegment) {
	if s.cold {
		return
	}
	c.pool.releaseAll(s.indices)
	s.indices = nil
	if cap(s.seqs) <= cap(c.spare.seqs) {
		return
	}
	for p := range s.cols {
		s.cols[p].truncate(0)
	}
	c.spare = colSegment{seqs: s.seqs[:0], ts: s.ts[:0], sch: s.sch[:0], cols: s.cols[:0]}
}

// storeFilter returns the key's store filter, ready to answer for every
// hot row (storefilter.go's buildStoreFilter does the slow path over the
// hot segments). idxDelta is the bytes built.
func (c *columnarState) storeFilter(key *indexKey) (f keyFilter, idxDelta int64) {
	pk := c.probed.get(key)
	if pk != nil && !pk.sf.full() {
		return pk.sf.filt, 0
	}
	var hot []*colSegment
	for _, s := range c.ring.vals {
		if !s.cold {
			hot = append(hot, s)
		}
	}
	return buildStoreFilter(&c.probed, &c.pool, pk, key, hot)
}

func (c *columnarState) retain(cur, prev []int32) (idxDelta int64) {
	for _, pk := range c.probed.retire(cur, prev) {
		for _, s := range c.ring.vals {
			if !s.cold {
				ix := s.indices.remove(&pk.key)
				idxDelta -= ix.resident()
				c.pool.release(ix)
			}
		}
		idxDelta -= pk.sf.filt.bytes()
	}
	return idxDelta
}

// probeScanBatch is the vectorized probe scan: one pass over the ring
// for the whole probe vector, whose key hashes the batch computed once
// per probe (probeBatch.add). First the store filter answers for every
// hot row at once (probeBatch.admitStore): a probe it rejects skips every
// hot slot, and each hot slot in its window reach counts one spared
// lookup. A slot whose max event time precedes every probe's cutoff is
// dismissed whole before any hash work — every tuple in it is older than
// the probes' window reach (task.probeCut's soundness argument). Every
// other slot is tried against a key filter — a hot slot's index filter,
// a cold slot's stub filter — so an epoch none of the probes can hit
// costs one filter word per probe and no chain walk. A surviving hot
// slot runs the segment's batch chain walk directly; a surviving cold
// slot is read through from the spill file and walked the same way —
// candidate order does not depend on where an epoch lives — and the
// decode is dropped after its scan, so the slot stays cold. The result
// log comes out segment-major; probeBatch.group restores the
// probe-major order the forward path needs.
func (c *columnarState) probeScanBatch(key *indexKey, pb *probeBatch) (idxDelta int64) {
	f, idxDelta := c.storeFilter(key)
	pb.admitStore(f)
	for _, s := range c.ring.vals {
		if s.maxTS < pb.minCut {
			continue // out of every probe's window reach
		}
		if !s.cold {
			pb.rejects += pb.skippedIn(s.maxTS)
			if s.maxTS < pb.hotMinCut {
				continue // every probe in reach was answered by the store filter
			}
			ix := s.indices.get(key)
			if s.admitsAny(pb, pb.hotCuts, ix.filt) {
				s.scanBatch(ix, pb, pb.hotCuts, nil)
			}
			continue
		}
		bl := s.stub.filterFor(key) // nil: key first probed after the demotion
		if !s.admitsAny(pb, pb.cuts, bl) {
			continue
		}
		ls := c.load(s)
		if ls == nil {
			continue // engine already failing
		}
		// The decode and its index are uncharged and live only for the
		// scan, which copies every result cell out of the columns
		// (evalRows): recycle hands the index back to the pool and the
		// columns to the spare.
		ix, _ := ls.indexFor(key, &c.pool)
		hits, misses := ls.scanBatch(ix, pb, pb.cuts, bl)
		c.recycle(ls)
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
			c.recycle(s)
			c.ring.drop(i)
			dropped = true
			continue
		}
		// Boundary slot: in-epoch remap, on the promoted segment when the
		// cut lands inside a cold epoch.
		if s.cold {
			c.promote(s)
		}
		removed += s.compact(w)
		if len(s.seqs) == 0 {
			delta -= before
			idxDelta -= idxBefore
			c.recycle(s)
			c.ring.drop(i)
			dropped = true
			continue
		}
		delta += s.resident() - before
		idxDelta += s.idxResident() - idxBefore
	}
	if dropped {
		c.ring.compact()
		if len(c.ring.vals) == 0 {
			f := c.probed.release()
			delta += f
			idxDelta += f
		}
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

// segment reads the epoch in place off its columns, or copies them into
// dst; a cold epoch through a transient decode, and the slot stays
// cold. A spill read failure fails the engine and yields no rows — the
// checkpointer's caller sees the failure, not a short snapshot
// presented as complete.
func (c *columnarState) segment(epoch int64, dst *SegmentBuf) Segment {
	s := c.ring.get(epoch)
	if s != nil && s.cold {
		s = c.load(s)
	}
	if s == nil {
		return Segment{}
	}
	if dst != nil {
		return dst.copyCols(s)
	}
	return s.view()
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
	removed, delta, idxDelta = s.rows(), -s.resident(), -s.idxResident()
	c.recycle(s)
	return ep, removed, delta, idxDelta, true
}

func (c *columnarState) clear() (removed int, delta, idxDelta int64) {
	for _, s := range c.ring.vals {
		removed += s.rows()
		delta -= s.resident()
		idxDelta -= s.idxResident()
	}
	f := c.probed.release()
	delta += f
	idxDelta += f
	c.ring.clear()
	c.spare, c.pool = colSegment{}, indexPool{}
	if freed := c.spilled.Swap(0); freed != 0 {
		c.m.spilledBytes.Add(-freed)
	}
	if err := c.store.reset(); err != nil {
		c.fail(err)
	}
	return removed, delta, idxDelta
}

func (c *columnarState) bytes() int64 {
	b := c.probed.bytes()
	for _, s := range c.ring.vals {
		b += s.resident()
	}
	return b
}

func (c *columnarState) indexBytes() int64 {
	b := c.probed.bytes()
	for _, s := range c.ring.vals {
		b += s.idxResident()
	}
	return b
}
