package ilp

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sync"
)

// SolutionCache memoizes component solutions across solves. The CLASH
// churn loop re-optimizes workloads that differ from the previous step
// by a handful of queries; every component untouched by the churn
// serializes to the same canonical byte string and is answered without
// search. Entries are verified by full key comparison (not just the
// 64-bit hash), so a collision can never return a wrong solution.
//
// Two entry classes coexist. Optimal solutions are keyed by the model
// alone — optimality is budget- and seed-independent. Limit (node-cap
// truncated) solutions are keyed by model PLUS the search budget and
// the warm-start seed: with no wall-clock deadline the solver is a
// deterministic function of those inputs, so replaying the stored
// incumbent is byte-identical to re-running the truncated search. The
// two classes never answer each other's lookups.
//
// The cache is safe for concurrent use (components may be solved in
// parallel). Eviction is generational: the owner calls Advance after
// each solve and entries untouched for the retention window are dropped.
type SolutionCache struct {
	mu      sync.Mutex
	entries map[uint64][]*cacheEntry
	gen     uint64
	keep    uint64
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key    []byte
	values []float64
	obj    float64
	gen    uint64
	limit  bool
}

// NewSolutionCache returns a cache retaining entries for keep
// generations (a generation is one Advance call; keep <= 0 defaults
// to 8).
func NewSolutionCache(keep int) *SolutionCache {
	if keep <= 0 {
		keep = 8
	}
	return &SolutionCache{entries: map[uint64][]*cacheEntry{}, keep: uint64(keep)}
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// Stats returns cumulative hit/miss counters and the live entry count.
func (c *SolutionCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, chain := range c.entries {
		n += len(chain)
	}
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: n}
}

// Advance starts a new generation and evicts entries not touched within
// the retention window. Call once per optimization step.
func (c *SolutionCache) Advance() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if c.gen < c.keep {
		return
	}
	cutoff := c.gen - c.keep
	for fp, chain := range c.entries {
		kept := chain[:0]
		for _, e := range chain {
			if e.gen > cutoff {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(c.entries, fp)
		} else {
			c.entries[fp] = kept
		}
	}
}

func (c *SolutionCache) lookup(fp uint64, key []byte, limit bool) (values []float64, obj float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[fp] {
		if e.limit == limit && bytes.Equal(e.key, key) {
			e.gen = c.gen
			c.hits++
			out := make([]float64, len(e.values))
			copy(out, e.values)
			return out, e.obj, true
		}
	}
	c.misses++
	return nil, 0, false
}

func (c *SolutionCache) insert(fp uint64, key []byte, values []float64, obj float64, limit bool) {
	cp := make([]float64, len(values))
	copy(cp, values)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[fp] {
		if e.limit == limit && bytes.Equal(e.key, key) {
			e.gen = c.gen
			return
		}
	}
	c.entries[fp] = append(c.entries[fp], &cacheEntry{key: key, values: cp, obj: obj, gen: c.gen, limit: limit})
}

// limitKey extends a component's canonical key with everything else a
// deterministic truncated search depends on: the node budget, LP
// effort, worker count, tolerance, and the warm-start seed. Two limit
// entries with different budgets or seeds never collide.
func limitKey(base []byte, o *Options, ws []float64) (uint64, []byte) {
	le := binary.LittleEndian
	// Appending to base in its spare capacity leaves base's own bytes as
	// they are; without the room, this copies.
	buf := slices.Grow(base[:len(base):cap(base)], limitKeySuffix(len(ws)))
	buf = le.AppendUint64(buf, uint64(int64(o.MaxNodes)))
	buf = le.AppendUint64(buf, uint64(int64(o.LPCellLimit)))
	buf = le.AppendUint64(buf, uint64(int64(o.Parallel)))
	buf = le.AppendUint64(buf, math.Float64bits(o.Tol))
	buf = le.AppendUint64(buf, uint64(len(ws)))
	for _, v := range ws {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	return maphash.Bytes(keySeed, buf), buf
}

// limitKeySuffix is how many bytes limitKey appends for a warm start of
// n values.
func limitKeySuffix(n int) int { return 40 + 8*n }

// keySeed seeds the cache keys' hash. A hash only picks the chain a
// key is compared in, so it need not be stable beyond the process.
var keySeed = maphash.MakeSeed()

// canonicalModel serializes the model's mathematical content — variable
// bounds, integrality, objective coefficients, and constraints with
// sorted terms — excluding names, and returns a hash of it plus the
// serialization itself (kept for exact collision checks), with spare
// bytes of capacity past it. Two structurally identical components built
// in the same variable order produce identical keys.
func canonicalModel(m *Model, spare int) (uint64, []byte) {
	size := 8 + len(m.Vars)*25
	for _, c := range m.Cons {
		size += 17 + len(c.Terms)*12
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size+spare)
	buf = le.AppendUint32(buf, uint32(len(m.Vars)))
	for _, v := range m.Vars {
		buf = le.AppendUint64(buf, math.Float64bits(v.Obj))
		buf = le.AppendUint64(buf, math.Float64bits(v.Lower))
		buf = le.AppendUint64(buf, math.Float64bits(v.Upper))
		if v.Integer {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = le.AppendUint32(buf, uint32(len(m.Cons)))
	for _, c := range m.Cons {
		buf = append(buf, byte(c.Rel))
		buf = le.AppendUint64(buf, math.Float64bits(c.RHS))
		buf = le.AppendUint32(buf, uint32(len(c.Terms)))
		for _, t := range c.Terms {
			buf = le.AppendUint32(buf, uint32(t.Var))
			buf = le.AppendUint64(buf, math.Float64bits(t.Coeff))
		}
	}
	return maphash.Bytes(keySeed, buf), buf
}
