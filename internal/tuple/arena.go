package tuple

import "math"

// Arena block-allocates join results. A stream join's hot path creates
// two heap objects per result tuple (the Tuple struct and its value
// slice); at tens of results per probe that dominates the allocation
// profile. An Arena hands out both from chunked blocks instead, so the
// amortized cost is a fraction of an allocation per result.
//
// A block is freed once every tuple carved from it is dead; results of
// one probe share their fate, so the pinning window is one block. An
// owner that knows when all it carved is dead calls Reset then (and once
// before it first carves), and the arena carves on from the blocks it
// keeps, at most arenaKeep of each kind. Not thread-safe.
type Arena struct {
	tuples []Tuple // the block New carves tuples from, nt of them carved
	vals   []Value // the block New carves values from, nv of them carved
	nt, nv int
	// blocks Reset rewinds over (nil until the first), kt and kv reached
	keepT  [][]Tuple
	keepV  [][]Value
	kt, kv int
}

const (
	arenaTupleChunk = 64
	arenaValueChunk = 512
	arenaKeep       = 8 // 152 KB: a 512-result batch of four-value tuples
)

// PoisonRecycled makes Reset overwrite the blocks it recycles (schema of
// no attribute, ts MinInt64, values "\x00recycled"), so a reader that kept
// a tuple reads poison. On in race builds; tests may set it in TestMain.
var PoisonRecycled = poisonRecycled

var (
	recycledSchema = NewSchema()
	recycledValue  = StringValue("\x00recycled")
)

// Poison overwrites the tuple as Reset overwrites a recycled block's
// tuples and values: an owner that recycles tuples one at a time calls it
// under PoisonRecycled.
func (t *Tuple) Poison() {
	t.Schema, t.TS = recycledSchema, math.MinInt64
	for i := range t.Values {
		t.Values[i] = recycledValue
	}
}

// New carves a tuple of the schema's arity, its values Null on a fresh
// block and stale on a recycled one: the caller overwrites every one.
func (a *Arena) New(s *Schema, ts Time) *Tuple {
	n := s.Len()
	if len(a.vals)-a.nv < n {
		a.vals, a.nv = nextBlock(&a.keepV, &a.kv, arenaValueChunk, n), 0
	}
	vals := a.vals[a.nv : a.nv+n : a.nv+n]
	a.nv += n
	if a.nt == len(a.tuples) {
		a.tuples, a.nt = nextBlock(&a.keepT, &a.kt, arenaTupleChunk, 1), 0
	}
	t := &a.tuples[a.nt]
	a.nt++
	*t = Tuple{Schema: s, Values: vals, TS: ts}
	return t
}

// nextBlock returns the next kept block, or a fresh one of max(chunk, n)
// elements, kept if the arena keeps blocks, has room and it is chunk-sized.
func nextBlock[T any](keep *[][]T, used *int, chunk, n int) []T {
	if n <= chunk && *used < len(*keep) {
		*used++
		return (*keep)[*used-1]
	}
	b := make([]T, max(chunk, n))
	if n <= chunk && *keep != nil && len(*keep) < arenaKeep {
		*keep = append(*keep, b)
		*used++
	}
	return b
}

// Reset rewinds the arena over the blocks it keeps. The caller declares
// every tuple carved since the last Reset dead: nothing reads one after.
func (a *Arena) Reset() {
	for _, b := range a.keepT[:a.kt] {
		for i := 0; PoisonRecycled && i < len(b); i++ {
			b[i].Schema, b[i].TS = recycledSchema, math.MinInt64
		}
	}
	for _, b := range a.keepV[:a.kv] {
		for i := 0; PoisonRecycled && i < len(b); i++ {
			b[i] = recycledValue
		}
	}
	if a.keepT == nil {
		a.keepT, a.keepV = make([][]Tuple, 0, arenaKeep), make([][]Value, 0, arenaKeep)
	}
	a.tuples, a.vals, a.nt, a.nv, a.kt, a.kv = nil, nil, 0, 0, 0, 0
}

// Join concatenates probe and stored under the joined schema, carving
// the result from the arena's current blocks. Its timestamp is the
// later of the two. joined must be probe.Schema.Concat(stored.Schema)
// (callers cache it).
func (a *Arena) Join(probe, stored *Tuple, joined *Schema) *Tuple {
	t := a.New(joined, max(probe.TS, stored.TS))
	copy(t.Values, probe.Values)
	copy(t.Values[len(probe.Values):], stored.Values)
	return t
}
