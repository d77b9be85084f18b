package tuple

// Arena block-allocates join results. A stream join's hot path creates
// two heap objects per result tuple (the Tuple struct and its value
// slice); at tens of results per probe that dominates the allocation
// profile. An Arena hands out both from chunked blocks instead, so the
// amortized cost is a fraction of an allocation per result.
//
// Trade-off: a block is garbage-collected only once every tuple carved
// from it is dead. Join results of one probe share their fate — they
// are materialized into the same window epoch and pruned together, or
// delivered to a sink and dropped — so the pinning window is one block,
// bounded by the chunk sizes below. Arenas are not thread-safe; give
// each worker its own.
type Arena struct {
	tuples []Tuple
	vals   []Value
}

const (
	arenaTupleChunk = 64
	arenaValueChunk = 512
)

// New carves a tuple of the schema's arity from the arena's current
// blocks, every value Null; the caller fills Values.
func (a *Arena) New(s *Schema, ts Time) *Tuple {
	n := s.Len()
	if len(a.vals) < n {
		c := arenaValueChunk
		if c < n {
			c = n
		}
		a.vals = make([]Value, c)
	}
	vals := a.vals[:n:n]
	a.vals = a.vals[n:]
	if len(a.tuples) == 0 {
		a.tuples = make([]Tuple, arenaTupleChunk)
	}
	t := &a.tuples[0]
	a.tuples = a.tuples[1:]
	*t = Tuple{Schema: s, Values: vals, TS: ts}
	return t
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
