package stats

// Micro-benchmarks of the statistics tap: Observe runs once per tuple on
// the engine's statistics goroutine, Seal once per epoch. Both use engine ingest
// schemas (the declared attributes plus the event-time column) and the
// collector sizes clash.Start configures. Run with
// go test ./internal/stats/ -run xxx -bench BenchmarkCollector -benchmem.

import (
	"testing"
	"time"

	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/tuple"
)

// lineitemAttrs is TPC-H lineitem as the repository's catalog declares it.
var lineitemAttrs = []string{"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity", "l_linestatus"}

// benchTuples draws n tuples of rel under an ingest schema of the given
// attributes, values uniform over keys, the event-time column ascending.
func benchTuples(rel string, attrs []string, n, keys int, seed uint64) []*tuple.Tuple {
	names := make([]string, 0, len(attrs)+1)
	for _, a := range attrs {
		names = append(names, rel+"."+a)
	}
	s := tuple.NewSchema(append(names, rel+"."+tuple.EventTime)...)
	r := rng.New(seed)
	out := make([]*tuple.Tuple, n)
	for i := range out {
		vals := make([]tuple.Value, 0, s.Len())
		for range attrs {
			vals = append(vals, tuple.IntValue(int64(r.Intn(keys))))
		}
		out[i] = tuple.New(s, tuple.Time(i), append(vals, tuple.IntValue(int64(i)))...)
	}
	return out
}

// BenchmarkCollectorObserve times one Observe per op at two widths: a
// single join attribute, and lineitem's six.
func BenchmarkCollectorObserve(b *testing.B) {
	for _, w := range []struct {
		name  string
		attrs []string
	}{{"attrs=1", []string{"a"}}, {"attrs=6", lineitemAttrs}} {
		b.Run(w.name, func(b *testing.B) {
			tuples := benchTuples("R", w.attrs, 4096, 100_000, 1)
			c := NewCollector(256, 128, 1)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				c.Observe("R", tuples[i%len(tuples)])
			}
		})
	}
}

// sealFixture is an epoch of 1 024 tuples on each of three relations
// (six, two and one attributes) and three predicates whose sample joins
// match.
func sealFixture() (map[string][]*tuple.Tuple, []query.Predicate) {
	const epoch, keys = 1024, 200
	streams := map[string][]*tuple.Tuple{
		"R": benchTuples("R", lineitemAttrs, epoch, keys, 1),
		"S": benchTuples("S", []string{"a", "b"}, epoch, keys, 2),
		"T": benchTuples("T", []string{"a"}, epoch, keys, 3),
	}
	attr := func(rel, name string) query.Attr { return query.Attr{Rel: rel, Name: name} }
	preds := []query.Predicate{
		{Left: attr("R", "l_orderkey"), Right: attr("S", "a")},
		{Left: attr("S", "b"), Right: attr("T", "a")},
		{Left: attr("R", "l_partkey"), Right: attr("T", "a")},
	}
	return streams, preds
}

// BenchmarkCollectorSeal times one Seal per op over sealFixture's epoch;
// observing the epoch is not timed.
func BenchmarkCollectorSeal(b *testing.B) {
	streams, preds := sealFixture()
	c := NewCollector(256, 128, 1)
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		for rel, ts := range streams {
			for _, t := range ts {
				c.Observe(rel, t)
			}
		}
		b.StartTimer()
		c.Seal(time.Second, preds)
	}
}

// BenchmarkCollectorEpoch times a whole epoch per op: observing
// sealFixture's tuples, then the Seal. Its allocations are what an epoch
// costs, the sketches of the epoch's first tuples included.
func BenchmarkCollectorEpoch(b *testing.B) {
	streams, preds := sealFixture()
	c := NewCollector(256, 128, 1)
	b.ReportAllocs()
	for b.Loop() {
		for rel, ts := range streams {
			for _, t := range ts {
				c.Observe(rel, t)
			}
		}
		c.Seal(time.Second, preds)
	}
}
