package stats

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"clash/internal/rng"
	"clash/internal/tuple"
)

// drawStream produces a deterministic zipf-skewed stream of key hashes
// together with the exact per-key frequencies.
func drawStream(seed uint64, n, universe int, s float64) ([]uint64, map[uint64]int64) {
	r := rng.New(seed)
	z := rng.NewZipf(r, universe, s)
	hashOf := func(k int) uint64 {
		// Spread small ints over the hash space (fmix-style) so sketch
		// tie-breaking by hash is non-trivial.
		h := uint64(k) + 0x9E3779B97F4A7C15
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
		return h
	}
	stream := make([]uint64, n)
	exact := map[uint64]int64{}
	for i := 0; i < n; i++ {
		h := hashOf(z.Draw())
		stream[i] = h
		exact[h]++
	}
	return stream, exact
}

// checkBounds asserts the SpaceSaving guarantees against exact counts:
// for every monitored key, Count-Err <= f <= Count, and every key with
// f > N/k is monitored.
func checkBounds(t *testing.T, sk *SpaceSaving, exact map[uint64]int64, k int) {
	t.Helper()
	var n int64
	for _, f := range exact {
		n += f
	}
	if sk.N() != n {
		t.Fatalf("N() = %d, want %d", sk.N(), n)
	}
	top := sk.Top(k)
	monitored := map[uint64]bool{}
	for _, hh := range top {
		monitored[hh.Hash] = true
		f := exact[hh.Hash]
		if f > hh.Count {
			t.Errorf("key %x: true freq %d exceeds Count %d", hh.Hash, f, hh.Count)
		}
		if hh.Count-hh.Err > f {
			t.Errorf("key %x: Count-Err = %d exceeds true freq %d", hh.Hash, hh.Count-hh.Err, f)
		}
	}
	for h, f := range exact {
		if f > n/int64(k) && !monitored[h] {
			t.Errorf("key %x with freq %d > N/k = %d not monitored", h, f, n/int64(k))
		}
	}
}

func TestSpaceSavingBounds(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		for seed := uint64(1); seed <= 8; seed++ {
			stream, exact := drawStream(seed, 5000, 300, 1.2)
			sk := NewSpaceSaving(k)
			for _, h := range stream {
				sk.Add(h)
			}
			checkBounds(t, sk, exact, k)
		}
	}
}

// mapSpaceSaving is the sketch as it was before the monitored set became
// a flat array — a map of heap-allocated entries whose every unmonitored
// add iterates the whole map — kept verbatim as the reference the flat
// implementation is differenced against.
type mapSpaceSaving struct {
	k       int
	n       int64
	entries map[uint64]*mapEntry
}

type mapEntry struct{ count, err int64 }

func newMapSpaceSaving(k int) *mapSpaceSaving {
	return &mapSpaceSaving{k: k, entries: make(map[uint64]*mapEntry, k)}
}

func (s *mapSpaceSaving) AddN(h uint64, n int64) {
	if n <= 0 {
		return
	}
	s.n += n
	if e := s.entries[h]; e != nil {
		e.count += n
		return
	}
	if len(s.entries) < s.k {
		s.entries[h] = &mapEntry{count: n}
		return
	}
	var minHash uint64
	var min *mapEntry
	for hh, e := range s.entries {
		if min == nil || e.count < min.count || (e.count == min.count && hh < minHash) {
			minHash, min = hh, e
		}
	}
	delete(s.entries, minHash)
	s.entries[h] = &mapEntry{count: min.count + n, err: min.count}
}

func (s *mapSpaceSaving) Top(n int) []HeavyHitter {
	out := make([]HeavyHitter, 0, len(s.entries))
	for h, e := range s.entries {
		out = append(out, HeavyHitter{Hash: h, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Hash < out[j].Hash
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// TestSpaceSavingMatchesMapReference drives the flat sketch and the map
// reference through the same random skewed streams — weighted adds
// included, cold universes in which nearly every add replaces the
// minimum, and short streams that leave the sketch below capacity — and
// requires Top and N to agree as they go. Sealed degrees, split keys and
// churn plans are functions of exactly these outputs.
// Two more shapes aim at the sorted array and its bucket counts: every
// hash sharing its top six bits (one bucket holds the whole monitored
// set), and keys drawn in turn with unit weights (counts tie, so every
// replacement and every Top order falls to the hash).
func TestSpaceSavingMatchesMapReference(t *testing.T) {
	type pair struct {
		flat *SpaceSaving
		ref  *mapSpaceSaving
	}
	newPair := func(k int) pair { return pair{NewSpaceSaving(k), newMapSpaceSaving(k)} }
	same := func(p pair, what string) {
		t.Helper()
		// One past capacity: a sketch that failed to shrink would show.
		if got, want := p.flat.Top(p.flat.k+1), p.ref.Top(p.ref.k+1); !slices.Equal(got, want) {
			t.Fatalf("%s: Top diverges\n flat: %+v\n  map: %+v", what, got, want)
		}
		if p.flat.N() != p.ref.n {
			t.Fatalf("%s: N %d, reference N %d", what, p.flat.N(), p.ref.n)
		}
	}
	type shape struct {
		name     string
		stream   func(seed uint64, n, universe, k int, s float64) []uint64
		weighted bool
	}
	zipf := func(seed uint64, n, universe, _ int, s float64) []uint64 {
		stream, _ := drawStream(seed, n, universe, s)
		return stream
	}
	shapes := []shape{
		{"zipf", zipf, true},
		{"one bucket", func(seed uint64, n, universe, k int, s float64) []uint64 {
			stream := zipf(seed, n, universe, k, s)
			for i, h := range stream {
				stream[i] = h&(1<<58-1) | 0x2a<<58
			}
			return stream
		}, true},
		{"ties", func(seed uint64, n, _, k int, _ float64) []uint64 {
			// k-2 to k+2 keys in turn: all monitored, their counts tied
			// after every round, or one too many, so that every add
			// replaces one of a tied minimum.
			stream := make([]uint64, n)
			u := max(1, k-2+int(seed%5))
			for i := range stream {
				stream[i] = (uint64(i%u) + 1) * 0x9E3779B97F4A7C15
			}
			return stream
		}, false},
	}
	for _, sh := range shapes {
		feed := func(p pair, seed uint64, n, universe int, s float64, what string) {
			w := rng.New(seed ^ 0xabcdef)
			for i, h := range sh.stream(seed, n, universe, p.flat.k, s) {
				c := int64(1)
				if sh.weighted && i%7 == 0 {
					c = int64(w.Intn(5)) // weighted adds; 0 must be a no-op on both
				}
				p.flat.AddN(h, c)
				p.ref.AddN(h, c)
				if i%257 == 0 {
					same(p, what)
				}
			}
			same(p, what)
		}
		// k = 300 puts more than 255 keys in one bucket: its count sticks.
		for _, k := range []int{1, 3, 16, 300} {
			for seed := uint64(1); seed <= 12; seed++ {
				what := func(phase string) string { return fmt.Sprintf("%s k=%d seed=%d %s", sh.name, k, seed, phase) }
				// Skew from near-uniform over a universe far larger than k (the
				// longstate shape: almost every add evicts) to heavily skewed.
				skew := []float64{0.2, 0.6, 1.3}[seed%3]
				a, b := newPair(k), newPair(k)
				feed(a, seed, 3000, 40+int(seed)*150, skew, what("stream a"))
				// On every fourth seed b stays below capacity.
				nb := 2500
				if seed%4 == 0 {
					nb = k / 2
				}
				feed(b, seed+100, nb, 300, 1.1, what("stream b"))
			}
		}
	}
}

func TestSpaceSavingTopDeterministic(t *testing.T) {
	build := func() *SpaceSaving {
		sk := NewSpaceSaving(4)
		for i := 0; i < 100; i++ {
			sk.Add(uint64(i % 10))
		}
		return sk
	}
	a, b := build().Top(4), build().Top(4)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Top()[%d] differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Count > a[i-1].Count {
			t.Fatalf("Top() not count-descending at %d: %+v", i, a)
		}
		if a[i].Count == a[i-1].Count && a[i].Hash < a[i-1].Hash {
			t.Fatalf("Top() ties not hash-ascending at %d: %+v", i, a)
		}
	}
}

func TestAttrDegreesShares(t *testing.T) {
	d := &AttrDegrees{
		Count:    100,
		Distinct: 10,
		Top: []HeavyHitter{
			{Hash: 7, Count: 40},
			{Hash: 3, Count: 20},
		},
	}
	if got := d.HotShare(); got != 0.4 {
		t.Errorf("HotShare = %v, want 0.4", got)
	}
	if got := d.KeyShare(1); got != 0.2 {
		t.Errorf("KeyShare(1) = %v, want 0.2", got)
	}
	if got := d.KeyShare(2); got != 0 {
		t.Errorf("KeyShare(2) = %v, want 0", got)
	}
	var nilD *AttrDegrees
	if nilD.HotShare() != 0 || nilD.KeyShare(0) != 0 {
		t.Errorf("nil AttrDegrees must report zeros")
	}
}

func TestCollectorSealsDegrees(t *testing.T) {
	// The collector must seal heavy hitters for each observed attribute;
	// a 50% hot key must dominate the sealed sketch.
	c := NewCollector(64, 64, 1)
	sch := tuple.NewSchema("R.a")
	r := rng.New(3)
	const n = 2000
	var hotHash uint64
	for i := 0; i < n; i++ {
		k := int64(100 + r.Intn(50))
		if i%2 == 0 {
			k = 7
		}
		tp := tuple.New(sch, tuple.Time(i), tuple.IntValue(k))
		if k == 7 {
			hotHash = tp.Values[0].Hash()
		}
		c.Observe("R", tp)
	}
	est := c.Seal(time.Second, nil)
	d := est.Degree("R.a")
	if d == nil {
		t.Fatal("no degree summary sealed for R.a")
	}
	if d.Count != n {
		t.Errorf("Count = %d, want %d", d.Count, n)
	}
	if len(d.Top) == 0 || d.Top[0].Hash != hotHash {
		t.Fatalf("hot key not at Top[0]: %+v", d.Top)
	}
	if hs := d.HotShare(); hs < 0.45 || hs > 0.55 {
		t.Errorf("HotShare = %v, want ~0.5", hs)
	}
	// Clone must deep-copy the sketch output.
	cl := est.Clone()
	cl.Degree("R.a").Top[0].Count = -1
	if est.Degree("R.a").Top[0].Count == -1 {
		t.Error("Clone shares Top slice with the original")
	}
}
