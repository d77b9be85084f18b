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

import (
	"cmp"
	"slices"
)

// SpaceSaving is the Metwally et al. heavy-hitter sketch: at most k
// monitored keys with per-key count and overestimation error. Any key
// whose true frequency exceeds N/k is guaranteed monitored, and for
// every monitored key the true frequency f satisfies
// Count-Err <= f <= Count. Keys are 64-bit value hashes — the same
// hashes the runtime routes by, so sealed heavy hitters translate
// directly into routing decisions.
//
// The monitored set is a flat array in no particular order: k is small
// (16 by default), the collector adds every attribute of every tuple,
// and most adds are of a key that is not monitored — one pass over the
// array finds the key or, failing that, the minimum to replace, with no
// allocation. Every choice among entries is by (count, then hash), never
// by position, so the sketch is a function of the observation history
// alone.
type SpaceSaving struct {
	k       int
	n       int64
	entries []HeavyHitter // at most k, unordered
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

// Add observes one occurrence of the key hash.
func (s *SpaceSaving) Add(h uint64) { s.AddN(h, 1) }

// AddN observes n occurrences of the key hash.
func (s *SpaceSaving) AddN(h uint64, n int64) {
	if n <= 0 {
		return
	}
	s.n += n
	min := 0
	for i := range s.entries {
		e := &s.entries[i]
		if e.Hash == h {
			e.Count += n
			return
		}
		if m := &s.entries[min]; e.Count < m.Count || (e.Count == m.Count && e.Hash < m.Hash) {
			min = i
		}
	}
	if len(s.entries) < s.k {
		s.entries = append(s.entries, HeavyHitter{Hash: h, Count: n})
		return
	}
	// Replace the minimum-count key; the newcomer inherits its count as
	// the overestimation bound (ties broken by hash for determinism).
	m := &s.entries[min]
	*m = HeavyHitter{Hash: h, Count: m.Count + n, Err: m.Count}
}

// N returns the total number of observations.
func (s *SpaceSaving) N() int64 { return s.n }

// find returns the monitored entry of the key hash, nil when it has none.
func (s *SpaceSaving) find(h uint64) *HeavyHitter {
	for i := range s.entries {
		if s.entries[i].Hash == h {
			return &s.entries[i]
		}
	}
	return nil
}

// Merge folds another sketch into this one so that the per-key bounds
// Count-Err <= f <= Count keep holding against the *combined* stream. A
// key monitored on only one side may have unseen occurrences hidden in
// the other side's evicted mass, bounded by that side's minimum count
// (the SpaceSaving invariant); that floor is added to both the count
// and the error. The result then shrinks back to capacity keeping the
// largest counts — dropping keys never violates a survivor's bounds.
func (s *SpaceSaving) Merge(o *SpaceSaving) {
	if o == nil {
		return
	}
	sFloor := s.floor()
	oFloor := o.floor()
	for i := range s.entries {
		e := &s.entries[i]
		if oe := o.find(e.Hash); oe != nil {
			e.Count += oe.Count
			e.Err += oe.Err
		} else {
			e.Count += oFloor
			e.Err += oFloor
		}
	}
	for _, oe := range o.entries {
		if s.find(oe.Hash) == nil {
			s.entries = append(s.entries, HeavyHitter{Hash: oe.Hash, Count: oe.Count + sFloor, Err: oe.Err + sFloor})
		}
	}
	s.n += o.n
	if len(s.entries) > s.k {
		s.entries = append(s.entries[:0], s.Top(s.k)...)
	}
}

// floor bounds the true frequency of any key this sketch does NOT
// monitor: at capacity that is the minimum monitored count; below
// capacity every observed key is monitored, so the bound is zero.
func (s *SpaceSaving) floor() int64 {
	if len(s.entries) < s.k {
		return 0
	}
	min := s.entries[0].Count
	for _, e := range s.entries[1:] {
		if e.Count < min {
			min = e.Count
		}
	}
	return min
}

// Top returns the n largest entries, count-descending (hash-ascending on
// ties — the order is deterministic for identical observation histories).
func (s *SpaceSaving) Top(n int) []HeavyHitter {
	out := append(make([]HeavyHitter, 0, len(s.entries)), s.entries...)
	slices.SortFunc(out, func(a, b HeavyHitter) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Hash, b.Hash)
	})
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

// MeanDegree is the average number of tuples per distinct value.
func (d *AttrDegrees) MeanDegree() float64 {
	if d == nil || d.Distinct < 1 {
		return float64(d.safeCount())
	}
	return float64(d.Count) / d.Distinct
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

func (d *AttrDegrees) safeCount() int64 {
	if d == nil {
		return 0
	}
	return d.Count
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
