package runtime

// Pluggable state backends (DESIGN.md §10). A task's materialized store
// — the per-epoch tuple history probes join against — lives behind the
// stateBackend interface, so the runtime's insert/probe/prune/checkpoint
// paths are layout-independent. Two implementations exist:
//
//   - containerState (this file): the seed storage design — per-epoch
//     containers of []entry, no window skipping on the probe path, one
//     candidate at a time through a scalar visitor. Kept as the
//     differential oracle for the columnar backend's layout, segment
//     skipping and vectorized evaluation.
//   - columnarState (columnar.go): an epoch-ring columnar store — rows
//     by value in flat per-epoch columns (seq, event time, schema
//     ordinal, and per column position kind, payload and string cells),
//     batch chain walks into selection vectors. Under a hot budget
//     (Config.StateHotBytes) the same ring demotes cold whole epochs to
//     an on-disk spill file (spill.go).
//
// Both index their rows with the one kernel there is, colIndex
// (columnar.go): open-addressed uint64-hash tables over int32 chain
// posting lists, one per index key — the sorted list of ALL stored
// attributes of a probing rule (plan.go's indexKey), so a probe walks
// the chain of its whole key, never the chain of its least selective
// attribute. What checks the kernel is ReferenceJoin (oracle.go), which
// knows no index: TestExactnessMatrix and the index and filter tests
// compare every state row's results with it.
//
// Memory accounting contract: every mutating operation returns the
// change in resident bytes (tuple payloads plus structural overhead
// PLUS index overhead — the seed design counted only payloads) and the
// index-overhead portion of that change. Deltas telescope exactly: a
// backend drained of all state has contributed net zero bytes. The
// engine feeds the deltas into Metrics.storeBytes / Metrics.indexBytes
// and the per-task gauges, which is what makes the bounded-memory
// policy layer (task.insert) able to account real state cost.
//
// Index contract: probeScanBatch delivers *candidates* under the index
// key — every stored tuple that carries all key attributes with values
// equal to the probe's is visited, but the backend may over-approximate
// (chains bucket by the 64-bit hash of the key). The batch's visitors
// therefore re-check every predicate by value (probeBatch.visit,
// probeBatch.evalRows). A key's first probe builds its index on every
// hot epoch, every new epoch starts with one per probed key, and insert
// and prune maintain them. Each index also answers the negative question
// from its built-in filter (colIndex.filt): a hash the filter rejects is
// in no chain, so a backend skips the table lookup and counts the spared
// lookup in the batch (probeBatch.rejects) — the filter removes only
// lookups that would have missed, never a candidate. One level up, the
// store filter of each probed key (storefilter.go) answers the same
// question for every hot epoch at once, before the epoch loop.
//
// Determinism contract: epoch iteration is ascending, within-epoch
// iteration is a pure function of the insert/prune history (never of Go
// map order), so identically seeded simulation runs stay trace-stable
// on every backend.

import (
	"math"
	"sort"

	"clash/internal/tuple"
)

// noCut disables window-based segment skipping in probeScanBatch: every
// resident epoch stays reachable regardless of event time.
const noCut = int64(math.MinInt64)

// StateBackendKind selects a task's store implementation.
type StateBackendKind int

const (
	// BackendContainer is the seed per-epoch container design — the
	// differential oracle for storage layout and window skipping.
	BackendContainer StateBackendKind = iota
	// BackendColumnar is the epoch-ring columnar store: flat per-epoch
	// segments with open-addressed hash indices and int32 posting
	// chains (columnar.go). With Config.StateHotBytes > 0 it demotes
	// cold whole epochs to an on-disk segment file behind
	// in-memory filter stubs (spill.go).
	BackendColumnar
)

// String names the backend for gauges and bench output.
func (k StateBackendKind) String() string {
	if k == BackendColumnar {
		return "columnar"
	}
	return "container"
}

// stateBackend is a task's materialized store. Implementations are not
// thread-safe: the substrate guarantees at most one goroutine executes
// a task (and therefore touches its backend) at a time.
//
// All byte deltas are signed changes in resident bytes including index
// overhead; idxDelta is the index-overhead portion of delta.
type stateBackend interface {
	// insert materializes the tuple into the given arrival epoch.
	insert(tp *tuple.Tuple, seq uint64, epoch int64) (delta, idxDelta int64)
	// probeScanBatch evaluates a whole probe vector in one pass under
	// the index key, appending matches to the batch's result log
	// (batchprobe.go). Per probe it visits, epoch-ascending and in
	// insertion order within an epoch, every stored candidate whose key
	// hash equals the probe's (pb.hashes). Index structures the scan
	// builds — a key's indices and store filter at its first probe, a
	// full store filter's rebuild — are reported through idxDelta. pb.cuts are the probes' window
	// cutoffs: the backend MAY skip, for a probe, any epoch whose max
	// event time precedes its cutoff (the caller guarantees no such tuple
	// passes its window checks; see task.probeCut). noCut disables
	// skipping; the container backend ignores the cutoffs entirely — it
	// is the full oracle.
	probeScanBatch(key *indexKey, pb *probeBatch) (idxDelta int64)
	// retain retires every probed key outside the two lists (the current
	// and the previous compiled plan's keys for the store): its indices
	// leave the hot epochs and its store filter goes.
	retain(cur, prev []int32) (idxDelta int64)
	// prune drops tuples whose event time precedes the cutoff,
	// maintaining the indices (no rebuild on the next probe).
	prune(cut tuple.Time) (removed int, delta, idxDelta int64)
	// epochs returns the resident epochs in ascending order. The slice
	// is owned by the backend and valid until the next mutation.
	epochs() []int64
	// epochLen is the number of tuples resident in the epoch.
	epochLen(epoch int64) int
	// segment returns the epoch's rows in storage order, without its key
	// (cold path: the checkpoint walk);
	// with dst, copied into dst (a checkpoint cut).
	segment(epoch int64, dst *SegmentBuf) Segment
	// dropOldest sheds the oldest epoch entirely — the eviction step.
	// It refuses (ok=false) when at most one epoch is resident: the
	// arrival epoch is never shed.
	dropOldest() (epoch int64, removed int, delta, idxDelta int64, ok bool)
	// clear drops all state (store retirement).
	clear() (removed int, delta, idxDelta int64)
	// bytes is the resident footprint (payload + structure + indices);
	// indexBytes is the index-overhead portion.
	bytes() int64
	indexBytes() int64
}

// Structural cost estimates (bytes) for the container backend's
// accounting: entries slots and the container itself. Index bytes are
// the kernel's own (colIndex.resident).
const (
	ctrEntrySlot = 16 // entry{*Tuple, uint64}
	ctrContainer = 96 // container struct + index list header
)

// entry is one stored tuple with the sequence number that orders it
// against probes (the "arrived earlier" condition of the probe-order
// decomposition).
type entry struct {
	t   *tuple.Tuple
	seq uint64
}

// container holds one epoch's stored tuples with one index per probed
// key (Sec. V-B: "for each distinct attribute access in a store, indices
// are created locally"), numbered by position in entries. Indices are
// opened with the container (containerState.probed) or built on a key's
// first probe, and maintained by add and prune thereafter.
// minTS/maxTS bound the entries' event times so prune can dismiss the
// container without reading it.
type container struct {
	entries []entry
	indices indexSet
	payload int64 // Σ tuple.MemSize
	minTS   int64
	maxTS   int64
}

func newContainer() *container {
	return &container{minTS: math.MaxInt64, maxTS: math.MinInt64}
}

// resident is the container's accounted footprint.
func (c *container) resident() int64 { return c.rowBytes() + c.indices.resident() }

// rowBytes is the footprint beside the indices.
func (c *container) rowBytes() int64 {
	return ctrContainer + c.payload + int64(cap(c.entries))*ctrEntrySlot
}

func (c *container) add(e entry) {
	row := int32(len(c.entries))
	c.entries = append(c.entries, e)
	c.payload += int64(e.t.MemSize())
	ts := int64(e.t.TS)
	c.minTS, c.maxTS = min(c.minTS, ts), max(c.maxTS, ts)
	c.indices.addRow(e.t, row)
}

// indexFor returns (building on first use, from the pool) the index
// under the key.
func (c *container) indexFor(key *indexKey, pool *indexPool) (ix *colIndex, built bool) {
	if ix = c.indices.get(key); ix != nil {
		return ix, false
	}
	ix = c.indices.add(key, pool)
	for row := range c.entries {
		ix.addRow(c.entries[row].t, int32(row))
	}
	return ix, true
}

// compact drops entries whose event time precedes the cutoff and
// rebuilds the indices over the survivors with every backing array
// reused: the next probe after a window expiry pays no rebuild.
func (c *container) compact(cut tuple.Time) (removed int) {
	kept := c.entries[:0]
	c.minTS, c.maxTS = math.MaxInt64, math.MinInt64
	for _, en := range c.entries {
		if en.t.TS < cut {
			c.payload -= int64(en.t.MemSize())
			continue
		}
		ts := int64(en.t.TS)
		c.minTS, c.maxTS = min(c.minTS, ts), max(c.maxTS, ts)
		kept = append(kept, en)
	}
	removed = len(c.entries) - len(kept)
	// Zero the tail so dropped tuples are collectable.
	clear(c.entries[len(kept):])
	c.entries = kept
	for _, ix := range c.indices {
		feed := ix.feed
		ix.reset()
		ix.feed = nil // the survivors' hashes are in the store filter already
		for row := range kept {
			ix.addRow(kept[row].t, int32(row))
		}
		ix.feed = feed
	}
	return removed
}

// epochRing is the epoch-sorted bookkeeping shared by both backends: a
// map for O(1) epoch lookup plus parallel slices (values ascending by
// epoch) so iteration order is a pure function of the data, never of
// Go's randomized map order — the determinism contract lives here,
// once.
type epochRing[T any] struct {
	byEpoch map[int64]*T
	vals    []*T    // values ordered by ascending epoch
	eps     []int64 // epochs matching vals, same order
}

func newEpochRing[T any]() epochRing[T] {
	return epochRing[T]{byEpoch: map[int64]*T{}}
}

func (r *epochRing[T]) get(ep int64) *T { return r.byEpoch[ep] }

// put places v as the epoch's value (sorted insert); the epoch must be
// absent.
func (r *epochRing[T]) put(ep int64, v *T) {
	r.byEpoch[ep] = v
	i := sort.Search(len(r.eps), func(i int) bool { return r.eps[i] >= ep })
	r.vals = append(r.vals, nil)
	r.eps = append(r.eps, 0)
	copy(r.vals[i+1:], r.vals[i:])
	copy(r.eps[i+1:], r.eps[i:])
	r.vals[i], r.eps[i] = v, ep
}

// drop marks the i-th slot dead; compact removes dead slots in place,
// preserving the epoch order of the survivors.
func (r *epochRing[T]) drop(i int) {
	delete(r.byEpoch, r.eps[i])
	r.vals[i] = nil
}

func (r *epochRing[T]) compact() {
	kept, keptE := r.vals[:0], r.eps[:0]
	for i, v := range r.vals {
		if v != nil {
			kept = append(kept, v)
			keptE = append(keptE, r.eps[i])
		}
	}
	for i := len(kept); i < len(r.vals); i++ {
		r.vals[i] = nil
	}
	r.vals, r.eps = kept, keptE
}

// dropHead sheds the oldest epoch. It refuses when at most one epoch
// is resident: the arrival epoch is never shed.
func (r *epochRing[T]) dropHead() (ep int64, v *T, ok bool) {
	if len(r.vals) <= 1 {
		return 0, nil, false
	}
	v, ep = r.vals[0], r.eps[0]
	delete(r.byEpoch, ep)
	copy(r.vals, r.vals[1:])
	copy(r.eps, r.eps[1:])
	r.vals[len(r.vals)-1] = nil
	r.vals = r.vals[:len(r.vals)-1]
	r.eps = r.eps[:len(r.eps)-1]
	return ep, v, true
}

func (r *epochRing[T]) clear() {
	r.byEpoch = map[int64]*T{}
	r.vals, r.eps = nil, nil
}

// containerState is the seed state design behind the stateBackend
// interface: one container per epoch on the shared epoch ring, and the
// store filters of its probed keys (storefilter.go) — every container
// holds an index under each — with the index pool (columnar.go) their
// indices grow from and a dropped container's go back to.
type containerState struct {
	ring   epochRing[container]
	probed probedKeys
	pool   indexPool
}

func newContainerState() *containerState {
	return &containerState{ring: newEpochRing[container]()}
}

func (s *containerState) insert(tp *tuple.Tuple, seq uint64, epoch int64) (delta, idxDelta int64) {
	// A container created by this insert is charged in full (before=0),
	// so the deltas telescope exactly against its eventual drop.
	var before, idxBefore, filters int64
	c := s.ring.get(epoch)
	if c == nil {
		c = newContainer()
		s.ring.put(epoch, c)
		filters = s.probed.open(&c.indices, &s.pool)
	} else {
		idxBefore = c.indices.resident()
		before = c.rowBytes() + idxBefore
	}
	c.add(entry{t: tp, seq: seq})
	idx := c.indices.resident()
	return c.rowBytes() + idx - before + filters, idx - idxBefore + filters
}

// storeFilter is columnarState.storeFilter over containers, all hot.
func (s *containerState) storeFilter(key *indexKey) (f keyFilter, idxDelta int64) {
	pk := s.probed.get(key)
	if pk != nil && !pk.sf.full() {
		return pk.sf.filt, 0
	}
	return buildStoreFilter(&s.probed, &s.pool, pk, key, s.ring.vals)
}

// probeScanBatch is the loop-over-scalar oracle scan: probe-major, one
// chain walk per probe and container, every candidate handed to the
// batch's scalar visitor. A probe the store filter answered skips every
// container, each counted as a spared lookup. The window cutoffs are
// ignored by design: the oracle backend visits every candidate and lets
// the visitor's window checks decide, which is what makes it the
// differential baseline for the columnar backend's segment skipping. The
// result log comes out probe-major already.
func (s *containerState) probeScanBatch(key *indexKey, pb *probeBatch) (idxDelta int64) {
	f, idxDelta := s.storeFilter(key)
	pb.admitStore(f)
	for i, h := range pb.hashes {
		if pb.hotCuts[i] == skipHot {
			pb.rejects += int64(len(s.ring.vals))
			continue
		}
		pb.begin(i)
		for _, c := range s.ring.vals {
			ix := c.indices.get(key)
			slot, ok, filtered := ix.find(h)
			if !ok {
				if filtered {
					pb.rejects++
				}
				continue
			}
			for row := ix.heads[slot]; row >= 0; row = ix.next[row] {
				en := &c.entries[row]
				pb.visit(en.t, en.seq)
			}
		}
	}
	return idxDelta
}

func (s *containerState) retain(cur, prev []int32) (idxDelta int64) {
	for _, pk := range s.probed.retire(cur, prev) {
		for _, c := range s.ring.vals {
			ix := c.indices.remove(&pk.key)
			idxDelta -= ix.resident()
			s.pool.release(ix)
		}
		idxDelta -= pk.sf.filt.bytes()
	}
	return idxDelta
}

// prune drops whole expired containers without reading their entries,
// skips containers wholly inside the window, and compacts only the
// container the cutoff lands in.
func (s *containerState) prune(cut tuple.Time) (removed int, delta, idxDelta int64) {
	dropped := false
	for i, c := range s.ring.vals {
		if c.minTS >= int64(cut) {
			continue
		}
		before, idxBefore := c.resident(), c.indices.resident()
		if c.maxTS < int64(cut) {
			// The whole container goes: its full footprint returns.
			removed += len(c.entries)
			delta -= before
			idxDelta -= idxBefore
			s.pool.releaseAll(c.indices)
			s.ring.drop(i)
			dropped = true
			continue
		}
		// The boundary container keeps at least its newest entry.
		removed += c.compact(cut)
		delta += c.resident() - before
		idxDelta += c.indices.resident() - idxBefore
	}
	if dropped {
		s.ring.compact()
		if len(s.ring.vals) == 0 {
			f := s.probed.release()
			delta += f
			idxDelta += f
		}
	}
	return removed, delta, idxDelta
}

func (s *containerState) epochs() []int64 { return s.ring.eps }

func (s *containerState) epochLen(epoch int64) int {
	if c := s.ring.get(epoch); c != nil {
		return len(c.entries)
	}
	return 0
}

func (s *containerState) segment(epoch int64, dst *SegmentBuf) Segment {
	c := s.ring.get(epoch)
	if c == nil {
		return Segment{}
	}
	var sg Segment
	if dst != nil {
		sg.cols = dst.next() // its arrays kept from the previous cut
	}
	for _, en := range c.entries {
		sg.Append(en.t, en.seq)
	}
	return sg
}

func (s *containerState) dropOldest() (epoch int64, removed int, delta, idxDelta int64, ok bool) {
	ep, c, ok := s.ring.dropHead()
	if !ok {
		return 0, 0, 0, 0, false
	}
	delta, idxDelta = -c.resident(), -c.indices.resident()
	s.pool.releaseAll(c.indices)
	return ep, len(c.entries), delta, idxDelta, true
}

func (s *containerState) clear() (removed int, delta, idxDelta int64) {
	for _, c := range s.ring.vals {
		removed += len(c.entries)
		delta -= c.resident()
		idxDelta -= c.indices.resident()
	}
	f := s.probed.release()
	delta += f
	idxDelta += f
	s.ring.clear()
	s.pool = indexPool{}
	return removed, delta, idxDelta
}

func (s *containerState) bytes() int64 {
	b := s.probed.bytes()
	for _, c := range s.ring.vals {
		b += c.resident()
	}
	return b
}

func (s *containerState) indexBytes() int64 {
	b := s.probed.bytes()
	for _, c := range s.ring.vals {
		b += c.indices.resident()
	}
	return b
}
