package main

import (
	"fmt"
	"sort"
	"sync/atomic"

	"clash"
	"clash/internal/tuple"
)

// digest is what the correctness gate compares: per query, how many
// results arrived and an order-independent fold of their contents.
type digest struct {
	Counts map[string]int64  `json:"counts"`
	Hashes map[string]string `json:"hashes"` // hex, so JSON keeps all 64 bits
}

// diff counts the results by which got differs from want over the
// listed queries: missing plus surplus, and one more for a query whose
// counts agree but whose contents do not.
func (got digest) diff(want digest, queries []string) (bad int64, detail []string) {
	for _, q := range queries {
		g, w := got.Counts[q], want.Counts[q]
		switch {
		case g != w:
			d := g - w
			if d < 0 {
				d = -d
			}
			bad += d
			detail = append(detail, fmt.Sprintf("%s: %d results, reference %d", q, g, w))
		case got.Hashes[q] != want.Hashes[q]:
			bad++
			detail = append(detail, fmt.Sprintf("%s: %d results agree in number but not in content", q, g))
		}
	}
	return bad, detail
}

// schemaHashes caches the attribute-name hashes of one result schema.
type schemaHashes struct {
	schema *tuple.Schema
	names  []uint64
}

// sink receives every result of a run. Callbacks may run on several
// engine goroutines at once (one per flow worker), so all state is
// atomic; the fold is a sum, which commutes.
type sink struct {
	queries []string
	count   []atomic.Int64
	hash    []atomic.Uint64
	cache   []atomic.Pointer[schemaHashes]

	// Latency: due[i] is when input i (ts i+1) was due, in nanoseconds
	// on the harness clock; zero means "not sampled". A result is timed
	// against the input its TS names.
	due      []int64
	samples  []int64
	sampleOf []uint16 // the query of each sample
	sampleIn []int32  // the input it is timed against
	nsample  atomic.Int64
}

func newSink(queries []string, inputs, maxSamples int) *sink {
	return &sink{
		queries:  queries,
		count:    make([]atomic.Int64, len(queries)),
		hash:     make([]atomic.Uint64, len(queries)),
		cache:    make([]atomic.Pointer[schemaHashes], len(queries)),
		due:      make([]int64, inputs),
		samples:  make([]int64, maxSamples),
		sampleOf: make([]uint16, maxSamples),
		sampleIn: make([]int32, maxSamples),
	}
}

// callbacks returns one OnResult function per query.
func (s *sink) callbacks() map[string]func(*clash.Tuple) {
	out := make(map[string]func(*clash.Tuple), len(s.queries))
	for i, q := range s.queries {
		out[q] = s.callback(i)
	}
	return out
}

func (s *sink) callback(qi int) func(*clash.Tuple) {
	return func(t *clash.Tuple) {
		s.count[qi].Add(1)
		s.hash[qi].Add(s.hashResult(qi, t))
		if i := int(t.TS) - 1; i >= 0 && i < len(s.due) {
			if d := s.due[i]; d != 0 {
				if k := s.nsample.Add(1) - 1; int(k) < len(s.samples) {
					s.samples[k] = nanos() - d
					s.sampleOf[k] = uint16(qi)
					s.sampleIn[k] = int32(i)
				}
			}
		}
	}
}

// hashResult folds a result's (attribute, value) pairs commutatively,
// because two plans for one query concatenate their inputs in different
// orders, and then its timestamp.
func (s *sink) hashResult(qi int, t *clash.Tuple) uint64 {
	c := s.cache[qi].Load()
	if c == nil || c.schema != t.Schema {
		names := t.Schema.Names()
		c = &schemaHashes{schema: t.Schema, names: make([]uint64, len(names))}
		for i, n := range names {
			c.names[i] = hashString(n)
		}
		s.cache[qi].Store(c)
	}
	var sum uint64
	for i, v := range t.Values {
		sum += mix(c.names[i] ^ v.Hash())
	}
	return mix(sum ^ uint64(t.TS))
}

func (s *sink) digest() digest {
	d := digest{Counts: map[string]int64{}, Hashes: map[string]string{}}
	for i, q := range s.queries {
		d.Counts[q] = s.count[i].Load()
		d.Hashes[q] = fmt.Sprintf("%016x", s.hash[i].Load())
	}
	return d
}

func (s *sink) results() int64 {
	var n int64
	for i := range s.count {
		n += s.count[i].Load()
	}
	return n
}

// latencies returns the recorded samples per query, each sorted, twice:
// as the clock read them, and divided by the machine factor of the
// stretch their input fell in. eligible counts the results that could
// have been timed (the excess over the reservoir was dropped).
func (s *sink) latencies(factorOf func(input int) float64) (raw, adjusted [][]int64, eligible int64) {
	eligible = s.nsample.Load()
	n := int(eligible)
	if n > len(s.samples) {
		n = len(s.samples)
	}
	raw = make([][]int64, len(s.queries))
	adjusted = make([][]int64, len(s.queries))
	for k := 0; k < n; k++ {
		q := s.sampleOf[k]
		raw[q] = append(raw[q], s.samples[k])
		adjusted[q] = append(adjusted[q], int64(float64(s.samples[k])/factorOf(int(s.sampleIn[k]))))
	}
	for _, set := range [][][]int64{raw, adjusted} {
		for _, v := range set {
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		}
	}
	return raw, adjusted, eligible
}
