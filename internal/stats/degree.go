// Degree sketches: per-attribute heavy-hitter and degree-moment
// estimation for skew-aware cost modeling. A mean selectivity says how
// many partners an *average* probe finds; it says nothing about how the
// partition load distributes when the stream is hashed by an attribute.
// The SpaceSaving sketch identifies the keys that dominate an attribute
// (the hash-partition hot spots), and AttrDegrees seals them together
// with the degree moments (count, distinct, mean degree) the cost model
// needs to price a partition decoration by its worst partition rather
// than its average one.

package stats

// SpaceSaving is the Metwally et al. heavy-hitter sketch: at most k
// monitored keys with per-key count and overestimation error. Any key
// whose true frequency exceeds N/k is guaranteed monitored, and for
// every monitored key the true frequency f satisfies
// Count-Err <= f <= Count. Keys are 64-bit value hashes — the same
// hashes the runtime routes by, so sealed heavy hitters translate
// directly into routing decisions.
//
// The monitored set is a flat array kept ascending by (count, hash), so
// the key to replace is always entries[0] and Top is a walk from the
// end. k is small (16 by default), the collector adds every attribute of
// every tuple, and most adds are of a key that is not monitored: a count
// of monitored hashes per top-6-bit bucket answers most of those without
// touching the array, and a hit or a replacement moves one entry to its
// new place, with no allocation. Every choice among entries is by
// (count, then hash), never by arrival, so the sketch is a function of
// the observation history alone.
type SpaceSaving struct {
	k       int
	n       int64
	entries []HeavyHitter // at most k, ascending by (Count, Hash)
	// buckets counts the monitored hashes by their top six bits. A
	// count that reaches 255 sticks, so zero always means "none".
	buckets [64]uint8
}

// HeavyHitter is one sealed sketch entry: Count overestimates the true
// frequency by at most Err.
type HeavyHitter struct {
	Hash  uint64
	Count int64
	Err   int64
}

// NewSpaceSaving returns a sketch monitoring at most k keys (k >= 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving{k: k, entries: make([]HeavyHitter, 0, k)}
}

// reset empties the sketch, keeping its array.
func (s *SpaceSaving) reset() {
	s.n = 0
	s.entries = s.entries[:0]
	s.buckets = [64]uint8{}
}

// bucket is the slot of a hash in SpaceSaving.buckets.
func bucket(h uint64) uint64 { return h >> 58 }

// less is the sketch's one order: by count, then by hash.
func less(a, b *HeavyHitter) bool {
	return a.Count < b.Count || (a.Count == b.Count && a.Hash < b.Hash)
}

// Add observes one occurrence of the key hash.
func (s *SpaceSaving) Add(h uint64) { s.AddN(h, 1) }

// AddN observes n occurrences of the key hash.
func (s *SpaceSaving) AddN(h uint64, n int64) {
	if n <= 0 {
		return
	}
	s.n += n
	b := bucket(h)
	if s.buckets[b] != 0 {
		for i := range s.entries {
			if s.entries[i].Hash == h {
				s.entries[i].Count += n
				s.place(i)
				return
			}
		}
	}
	s.count(b, +1)
	if len(s.entries) < s.k {
		s.entries = append(s.entries, HeavyHitter{Hash: h, Count: n})
		s.place(len(s.entries) - 1)
		return
	}
	// Replace the minimum-count key; the newcomer inherits its count as
	// the overestimation bound (ties broken by hash for determinism).
	m := &s.entries[0]
	s.count(bucket(m.Hash), -1)
	*m = HeavyHitter{Hash: h, Count: m.Count + n, Err: m.Count}
	s.place(0)
}

// count adds d (±1) to a bucket's count unless the count stuck at 255.
func (s *SpaceSaving) count(b uint64, d int) {
	if c := s.buckets[b]; c < 255 {
		s.buckets[b] = c + uint8(d)
	}
}

// place moves entries[i], whose count changed or which was just
// appended, to its place in the order.
func (s *SpaceSaving) place(i int) {
	e := s.entries[i]
	for ; i+1 < len(s.entries) && less(&s.entries[i+1], &e); i++ {
		s.entries[i] = s.entries[i+1]
	}
	for ; i > 0 && less(&e, &s.entries[i-1]); i-- {
		s.entries[i] = s.entries[i-1]
	}
	s.entries[i] = e
}

// N returns the total number of observations.
func (s *SpaceSaving) N() int64 { return s.n }

// Top returns the n largest entries, count-descending (hash-ascending on
// ties — the order is deterministic for identical observation histories):
// the sorted array read from its end, one run of equal counts at a time.
func (s *SpaceSaving) Top(n int) []HeavyHitter {
	out := make([]HeavyHitter, 0, min(n, len(s.entries)))
	for j := len(s.entries); j > 0 && len(out) < n; {
		i := j - 1
		for i > 0 && s.entries[i-1].Count == s.entries[j-1].Count {
			i--
		}
		out = append(out, s.entries[i:j]...)
		j = i
	}
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// AttrDegrees is the sealed degree summary of one attribute: the moments
// (observation count, estimated distinct count, mean degree) plus the
// heavy hitters that dominate a hash partitioning of the stream.
type AttrDegrees struct {
	Count    int64         // observed tuples carrying the attribute
	Distinct float64       // estimated distinct values (KMV)
	Top      []HeavyHitter // heaviest keys, count-descending
}

// HotShare is the heaviest key's estimated share of the stream — the
// fraction of tuples a single hash partition receives from that key
// alone. Zero when nothing was observed.
func (d *AttrDegrees) HotShare() float64 {
	if d == nil || d.Count == 0 || len(d.Top) == 0 {
		return 0
	}
	return float64(d.Top[0].Count) / float64(d.Count)
}

// KeyShare is the estimated stream share of one sealed heavy hitter.
func (d *AttrDegrees) KeyShare(i int) float64 {
	if d == nil || d.Count == 0 || i >= len(d.Top) {
		return 0
	}
	return float64(d.Top[i].Count) / float64(d.Count)
}

// clone returns a deep copy.
func (d *AttrDegrees) clone() *AttrDegrees {
	if d == nil {
		return nil
	}
	c := &AttrDegrees{Count: d.Count, Distinct: d.Distinct}
	c.Top = append([]HeavyHitter(nil), d.Top...)
	return c
}
