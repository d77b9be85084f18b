package runtime

// Pluggable state backends (DESIGN.md §10). A task's materialized store
// — the per-epoch tuple history probes join against — lives behind the
// stateBackend interface, so the runtime's insert/probe/prune/checkpoint
// paths are layout-independent. Two implementations exist:
//
//   - containerState (this file): the seed design — per-epoch containers
//     of []entry with lazily built map[Value][]int hash indices. Kept as
//     the differential oracle for the columnar backend.
//   - columnarState (columnar.go): an epoch-ring columnar store — flat
//     per-epoch tuple/seq/timestamp columns with open-addressed
//     uint64-hash indices over int32 chain posting lists. No per-key
//     map buckets or posting slices: GC-friendlier and faster to prune.
//     Under a hot budget (Config.StateHotBytes) the same ring demotes
//     cold whole epochs to an on-disk spill file (spill.go).
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
// Index contract: probeScan delivers *candidates* under the indexed
// attribute — every stored tuple whose indexed value equals v is
// visited, but the backend may over-approximate (the columnar index
// buckets by 64-bit hash). Visitors therefore re-check the indexed
// predicate by value; see probeVisit.
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

// noCut disables window-based segment skipping in probeScan: every
// resident epoch stays reachable regardless of event time.
const noCut = int64(math.MinInt64)

// StateBackendKind selects a task's store implementation.
type StateBackendKind int

const (
	// BackendContainer is the seed per-epoch container design with
	// map-based local indices — the differential oracle.
	BackendContainer StateBackendKind = iota
	// BackendColumnar is the epoch-ring columnar store: flat per-epoch
	// segments with open-addressed hash indices and int32 posting
	// chains (columnar.go). With Config.StateHotBytes > 0 it demotes
	// cold whole epochs to an mmap'd on-disk segment file behind
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

// StatePolicy is what the engine does when materialized state exceeds
// Config.StateLimitBytes.
type StatePolicy int

const (
	// EvictFail terminates the engine with ErrMemoryLimit — the seed
	// behaviour (Fig. 8a: the static strategy dies on overflow).
	EvictFail StatePolicy = iota
	// EvictOldestEpoch sheds whole epochs, oldest first, from the task
	// that crossed the limit until state fits again (the current arrival
	// epoch is never shed). Evictions are counted, not fatal: results
	// lose pairs whose partner was evicted, but the engine stays live —
	// the long-state trade of arXiv:2411.15835.
	EvictOldestEpoch
)

// matchVisitor receives index candidates during a probe scan. The
// candidate's indexed value is not guaranteed equal to the probed value
// (hash-bucketed indices over-approximate): visitors re-check it.
type matchVisitor interface {
	visit(tp *tuple.Tuple, seq uint64)
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
	// probeScan visits, epoch-ascending, every stored candidate whose
	// indexed attribute may equal v. Lazily built index structures are
	// reported through idxDelta. cut is the caller's window cutoff: the
	// backend MAY skip any epoch whose max event time precedes it (the
	// caller guarantees no such tuple passes its window checks; see
	// task.probeCut). math.MinInt64 disables skipping; the container
	// backend ignores the cutoff entirely — it is the full oracle.
	probeScan(attr string, v tuple.Value, cut int64, mv matchVisitor) (idxDelta int64)
	// probeScanBatch evaluates a whole probe vector in one pass,
	// appending matches to the batch's result log (batchprobe.go). Per
	// probe, the visited candidates and their order must be identical
	// to a probeScan with that probe's value and cutoff.
	probeScanBatch(attr string, pb *probeBatch) (idxDelta int64)
	// prune drops tuples whose event time precedes the cutoff,
	// maintaining the indices (no rebuild on the next probe).
	prune(cut tuple.Time) (removed int, delta, idxDelta int64)
	// epochs returns the resident epochs in ascending order. The slice
	// is owned by the backend and valid until the next mutation.
	epochs() []int64
	// epochLen is the number of tuples resident in the epoch.
	epochLen(epoch int64) int
	// forEach visits the epoch's tuples in storage order (cold path:
	// checkpointing).
	forEach(epoch int64, fn func(tp *tuple.Tuple, seq uint64))
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
// accounting. They price what the Go runtime actually allocates:
// entries slots, map buckets per distinct key, posting-list ints.
const (
	ctrEntrySlot = 16 // entry{*Tuple, uint64}
	ctrIndexBase = 48 // map header per local index
	ctrIndexKey  = 96 // map bucket share + Value + posting slice header
	ctrIndexPost = 8  // one posting-list int
	ctrContainer = 96 // container struct + indices map header
)

// entry is one stored tuple with the sequence number that orders it
// against probes (the "arrived earlier" condition of the probe-order
// decomposition).
type entry struct {
	t   *tuple.Tuple
	seq uint64
}

// container holds one epoch's stored tuples with hash indices per
// probed attribute (Sec. V-B: "for each distinct attribute access in a
// store, indices are created locally"). Indices build lazily on first
// probe and are maintained incrementally by add and prune thereafter.
type container struct {
	entries []entry
	indices map[string]map[tuple.Value][]int

	payload  int64 // Σ tuple.MemSize
	idxKeys  int64 // distinct keys across indices
	idxPosts int64 // posting entries across indices
}

func newContainer() *container {
	return &container{indices: map[string]map[tuple.Value][]int{}}
}

// newContainerAt adapts newContainer to the epochRing factory shape
// (containers do not record their epoch).
func newContainerAt(int64) *container { return newContainer() }

// resident is the container's accounted footprint.
func (c *container) resident() int64 {
	return ctrContainer + c.payload + int64(cap(c.entries))*ctrEntrySlot + c.idxResident()
}

func (c *container) idxResident() int64 {
	return int64(len(c.indices))*ctrIndexBase + c.idxKeys*ctrIndexKey + c.idxPosts*ctrIndexPost
}

func (c *container) add(e entry) {
	idx := len(c.entries)
	c.entries = append(c.entries, e)
	c.payload += int64(e.t.MemSize())
	for attr, ix := range c.indices {
		if v, ok := e.t.Get(attr); ok {
			list, seen := ix[v]
			if !seen {
				c.idxKeys++
			}
			ix[v] = append(list, idx)
			c.idxPosts++
		}
	}
}

// index returns (building on first use) the hash index over the given
// qualified attribute.
func (c *container) index(attr string) map[tuple.Value][]int {
	if ix, ok := c.indices[attr]; ok {
		return ix
	}
	ix := make(map[tuple.Value][]int)
	for i, e := range c.entries {
		if v, ok := e.t.Get(attr); ok {
			list, seen := ix[v]
			if !seen {
				c.idxKeys++
			}
			ix[v] = append(list, i)
			c.idxPosts++
		}
	}
	c.indices[attr] = ix
	return ix
}

// prune drops entries whose event time precedes the cutoff, rewriting
// the index posting lists through a position remap instead of
// discarding the indices: the next probe after a window expiry pays no
// rebuild. remap is caller-owned scratch, returned for reuse.
func (c *container) prune(cut tuple.Time, remap []int32) (removed int, scratch []int32) {
	if cap(remap) < len(c.entries) {
		remap = make([]int32, len(c.entries))
	}
	remap = remap[:len(c.entries)]
	kept := c.entries[:0]
	for i := range c.entries {
		en := c.entries[i]
		if en.t.TS < cut {
			remap[i] = -1
			removed++
			c.payload -= int64(en.t.MemSize())
			continue
		}
		remap[i] = int32(len(kept))
		kept = append(kept, en)
	}
	if removed == 0 {
		return 0, remap
	}
	// Zero the tail so dropped tuples are collectable.
	for i := len(kept); i < len(c.entries); i++ {
		c.entries[i] = entry{}
	}
	c.entries = kept
	for _, ix := range c.indices {
		for v, list := range ix {
			nl := list[:0]
			for _, old := range list {
				if n := remap[old]; n >= 0 {
					nl = append(nl, int(n))
				}
			}
			c.idxPosts -= int64(len(list) - len(nl))
			if len(nl) == 0 {
				delete(ix, v)
				c.idxKeys--
			} else {
				ix[v] = nl
			}
		}
	}
	return removed, remap
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

// at returns the epoch's value, creating it via mk (sorted insert)
// when absent. mk must be a static function reference — a capturing
// closure would allocate on the insert hot path.
func (r *epochRing[T]) at(ep int64, mk func(int64) *T) (v *T, created bool) {
	if v = r.byEpoch[ep]; v != nil {
		return v, false
	}
	v = mk(ep)
	r.byEpoch[ep] = v
	i := sort.Search(len(r.eps), func(i int) bool { return r.eps[i] >= ep })
	r.vals = append(r.vals, nil)
	r.eps = append(r.eps, 0)
	copy(r.vals[i+1:], r.vals[i:])
	copy(r.eps[i+1:], r.eps[i:])
	r.vals[i], r.eps[i] = v, ep
	return v, true
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
// interface: one container per epoch on the shared epoch ring.
type containerState struct {
	ring       epochRing[container]
	pruneRemap []int32 // prune remap scratch, reused
	n          int64   // resident tuples
}

func newContainerState() *containerState {
	return &containerState{ring: newEpochRing[container]()}
}

func (s *containerState) insert(tp *tuple.Tuple, seq uint64, epoch int64) (delta, idxDelta int64) {
	// A container created by this insert is charged in full (before=0),
	// so the deltas telescope exactly against its eventual drop.
	var before, idxBefore int64
	c, created := s.ring.at(epoch, newContainerAt)
	if !created {
		before, idxBefore = c.resident(), c.idxResident()
	}
	c.add(entry{t: tp, seq: seq})
	s.n++
	return c.resident() - before, c.idxResident() - idxBefore
}

func (s *containerState) probeScan(attr string, v tuple.Value, _ int64, mv matchVisitor) (idxDelta int64) {
	// The window cutoff is ignored by design: the oracle backend visits
	// every candidate and lets the visitor's window checks decide, which
	// is what makes it the differential baseline for the columnar
	// backend's segment skipping.
	for _, c := range s.ring.vals {
		before := c.idxResident()
		ix := c.index(attr)
		idxDelta += c.idxResident() - before
		for _, ci := range ix[v] {
			en := &c.entries[ci]
			mv.visit(en.t, en.seq)
		}
	}
	return idxDelta
}

func (s *containerState) probeScanBatch(attr string, pb *probeBatch) (idxDelta int64) {
	// Loop-over-scalar oracle: probe-major over the scalar scan (the
	// batch doubles as the matchVisitor), emitting the result log in
	// probe-major order with no segment skipping.
	for i := range pb.vals {
		pb.begin(i)
		idxDelta += s.probeScan(attr, pb.vals[i], pb.cuts[i], pb)
	}
	return idxDelta
}

func (s *containerState) prune(cut tuple.Time) (removed int, delta, idxDelta int64) {
	dropped := false
	for i, c := range s.ring.vals {
		before, idxBefore := c.resident(), c.idxResident()
		r, remap := c.prune(cut, s.pruneRemap)
		s.pruneRemap = remap
		if r == 0 {
			continue
		}
		removed += r
		s.n -= int64(r)
		if len(c.entries) == 0 {
			// The whole container goes: its full footprint returns.
			delta -= before
			idxDelta -= idxBefore
			s.ring.drop(i)
			dropped = true
			continue
		}
		delta += c.resident() - before
		idxDelta += c.idxResident() - idxBefore
	}
	if dropped {
		s.ring.compact()
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

func (s *containerState) forEach(epoch int64, fn func(tp *tuple.Tuple, seq uint64)) {
	c := s.ring.get(epoch)
	if c == nil {
		return
	}
	for i := range c.entries {
		fn(c.entries[i].t, c.entries[i].seq)
	}
}

func (s *containerState) dropOldest() (epoch int64, removed int, delta, idxDelta int64, ok bool) {
	ep, c, ok := s.ring.dropHead()
	if !ok {
		return 0, 0, 0, 0, false
	}
	removed = len(c.entries)
	s.n -= int64(removed)
	return ep, removed, -c.resident(), -c.idxResident(), true
}

func (s *containerState) clear() (removed int, delta, idxDelta int64) {
	for _, c := range s.ring.vals {
		removed += len(c.entries)
		delta -= c.resident()
		idxDelta -= c.idxResident()
	}
	s.ring.clear()
	s.n = 0
	return removed, delta, idxDelta
}

func (s *containerState) bytes() int64 {
	var b int64
	for _, c := range s.ring.vals {
		b += c.resident()
	}
	return b
}

func (s *containerState) indexBytes() int64 {
	var b int64
	for _, c := range s.ring.vals {
		b += c.idxResident()
	}
	return b
}
