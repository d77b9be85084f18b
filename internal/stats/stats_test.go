package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"clash/internal/query"
	"clash/internal/tuple"
)

func TestEstimatesDefaults(t *testing.T) {
	e := NewEstimates(0.05)
	if e.Rate("R") != 1 {
		t.Errorf("unknown rate = %g, want neutral 1", e.Rate("R"))
	}
	p := query.Predicate{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}}
	if e.Selectivity(p) != 0.05 {
		t.Errorf("unknown sel = %g, want default 0.05", e.Selectivity(p))
	}
	e.SetRate("R", 100)
	e.SetSelectivity(p, 0.5)
	if e.Rate("R") != 100 || e.Selectivity(p) != 0.5 {
		t.Error("set/get round trip failed")
	}
	if w := e.Window("R", time.Second); w != time.Second {
		t.Errorf("default window = %v", w)
	}
	e.Windows["R"] = time.Minute
	if w := e.Window("R", time.Second); w != time.Minute {
		t.Errorf("window = %v", w)
	}
}

func TestEstimatesSelectivityNormalization(t *testing.T) {
	e := NewEstimates(0.01)
	p := query.Predicate{Left: query.Attr{Rel: "S", Name: "b"}, Right: query.Attr{Rel: "R", Name: "b"}}
	e.SetSelectivity(p, 0.25)
	flipped := query.Predicate{Left: query.Attr{Rel: "R", Name: "b"}, Right: query.Attr{Rel: "S", Name: "b"}}
	if e.Selectivity(flipped) != 0.25 {
		t.Error("selectivity lookup not orientation-independent")
	}
}

func TestBlend(t *testing.T) {
	old := NewEstimates(0.01)
	old.SetRate("R", 100)
	old.SetRate("S", 10)
	nw := NewEstimates(0.01)
	nw.SetRate("R", 200)
	nw.SetRate("T", 50)
	out := Blend(old, nw, 0.5)
	if got := out.Rates["R"]; got != 150 {
		t.Errorf("blended R = %g, want 150", got)
	}
	if got := out.Rates["S"]; got != 10 {
		t.Errorf("kept S = %g, want 10", got)
	}
	if got := out.Rates["T"]; got != 50 {
		t.Errorf("new T = %g, want 50", got)
	}
	if Blend(nil, nw, 0.5).Rates["R"] != 200 {
		t.Error("Blend(nil, new) should copy new")
	}
	if Blend(old, nil, 0.5).Rates["R"] != 100 {
		t.Error("Blend(old, nil) should copy old")
	}
}

// TestBlendReusesUntouchedDegrees is the regression test for estimate
// recomputation on untouched stores: a relation with no fresh degree
// observation must keep its *same* sealed sketch object across Blend —
// re-cloning it every epoch recomputed estimates for stores the churn
// never touched and defeated object-identity caching downstream. A
// fresh summary is taken by reference too: Seal builds it for Blend and
// nothing mutates a sealed summary, so a copy is only garbage.
func TestBlendReusesUntouchedDegrees(t *testing.T) {
	old := NewEstimates(0.01)
	untouched := &AttrDegrees{Count: 100, Distinct: 10}
	observed := &AttrDegrees{Count: 50, Distinct: 5}
	old.SetDegree("R.a", untouched)
	old.SetDegree("S.b", observed)

	nw := NewEstimates(0.01)
	freshS := &AttrDegrees{Count: 80, Distinct: 8}
	nw.SetDegree("S.b", freshS)

	out := Blend(old, nw, 0.5)
	if out.Degree("R.a") != untouched {
		t.Error("untouched degree sketch was re-created instead of reused")
	}
	if out.Degree("S.b") == observed {
		t.Error("freshly observed attribute kept the stale sketch")
	}
	if out.Degree("S.b") != freshS {
		t.Error("fresh sketch was copied instead of taken by reference")
	}
	if got := out.Degree("S.b").Count; got != 80 {
		t.Errorf("fresh degree count = %d, want 80", got)
	}
}

func TestKMVExactBelowK(t *testing.T) {
	sk := NewKMV(64)
	for i := 0; i < 40; i++ {
		sk.Add(tuple.IntValue(int64(i)))
	}
	// Duplicates must not inflate the estimate.
	for i := 0; i < 40; i++ {
		sk.Add(tuple.IntValue(int64(i)))
	}
	if got := sk.Estimate(); got != 40 {
		t.Errorf("KMV below capacity should be exact: %g, want 40", got)
	}
}

func TestKMVEstimateAccuracy(t *testing.T) {
	sk := NewKMV(256)
	const n = 20000
	for i := 0; i < n; i++ {
		sk.Add(tuple.IntValue(int64(i)))
	}
	got := sk.Estimate()
	if math.Abs(got-n)/n > 0.2 {
		t.Errorf("KMV estimate %g for %d distinct; >20%% off", got, n)
	}
}

// sortKMV is the sketch as it was before AddHash became one binary
// search: a membership map beside the sorted minima and a full sort on
// every add while filling. Kept verbatim as the reference the current
// implementation is differenced against.
type sortKMV struct {
	k         int
	hashes    []uint64
	seen      map[uint64]bool
	saturated bool
}

func (s *sortKMV) AddHash(h uint64) {
	if s.seen[h] {
		return
	}
	if len(s.hashes) < s.k {
		s.seen[h] = true
		s.hashes = append(s.hashes, h)
		sort.Slice(s.hashes, func(i, j int) bool { return s.hashes[i] < s.hashes[j] })
		return
	}
	s.saturated = true
	if h >= s.hashes[s.k-1] {
		return
	}
	delete(s.seen, s.hashes[s.k-1])
	s.seen[h] = true
	i := sort.Search(s.k, func(i int) bool { return s.hashes[i] >= h })
	copy(s.hashes[i+1:], s.hashes[i:s.k-1])
	s.hashes[i] = h
}

// TestKMVMatchesSortReference feeds both implementations the same
// streams — universes smaller than k (never saturates), around k, and
// far larger, with repeats — and requires the kept minima, the
// saturation flag and therefore every estimate to agree after each add.
func TestKMVMatchesSortReference(t *testing.T) {
	for _, k := range []int{2, 5, 128} {
		for seed := uint64(1); seed <= 8; seed++ {
			universe := []int{k / 2, k, k + 1, 40 * k}[seed%4]
			stream, _ := drawStream(seed, 6*k+50, universe+1, 0.4)
			sk, ref := NewKMV(k), &sortKMV{k: k, seen: map[uint64]bool{}}
			for i, h := range stream {
				sk.AddHash(h)
				ref.AddHash(h)
				if !slices.Equal(sk.hashes, ref.hashes) || sk.saturated != ref.saturated {
					t.Fatalf("k=%d seed=%d add %d (%x): minima %x saturated %v, reference %x %v",
						k, seed, i, h, sk.hashes, sk.saturated, ref.hashes, ref.saturated)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { sk.AddHash(stream[0] + 1) }); allocs != 0 {
				t.Errorf("k=%d seed=%d: AddHash allocates %.0f times", k, seed, allocs)
			}
		}
	}
}

func TestKMVProperty(t *testing.T) {
	// Property: estimate never exceeds a small multiple of the true
	// distinct count for small inputs, and is never negative.
	f := func(vals []int16) bool {
		sk := NewKMV(32)
		seen := map[int16]bool{}
		for _, v := range vals {
			sk.Add(tuple.IntValue(int64(v)))
			seen[v] = true
		}
		est := sk.Estimate()
		if est < 0 {
			return false
		}
		if len(seen) <= 32 && est != float64(len(seen)) {
			return false // below capacity, must be exact
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReservoirUniform(t *testing.T) {
	s := tuple.NewSchema("R.a")
	r := NewReservoir(100, 1)
	const n = 10000
	for i := 0; i < n; i++ {
		r.Add(tuple.New(s, tuple.Time(i), tuple.IntValue(int64(i))))
	}
	items := r.Items()
	if len(items) != 100 {
		t.Fatalf("reservoir size = %d", len(items))
	}
	// Rough uniformity check: mean of sampled values near n/2.
	sum := 0.0
	for _, it := range items {
		sum += float64(it.Values[0].Int())
	}
	mean := sum / 100
	if math.Abs(mean-n/2) > n/8 {
		t.Errorf("sample mean %g far from %d", mean, n/2)
	}
}

func TestReservoirBelowCapacity(t *testing.T) {
	s := tuple.NewSchema("R.a")
	r := NewReservoir(10, 2)
	for i := 0; i < 5; i++ {
		r.Add(tuple.New(s, 0, tuple.IntValue(int64(i))))
	}
	if len(r.Items()) != 5 {
		t.Errorf("reservoir below capacity should keep all: %d", len(r.Items()))
	}
}

func TestCollectorRates(t *testing.T) {
	c := NewCollector(64, 64, 1)
	s := tuple.NewSchema("R.a")
	for i := 0; i < 500; i++ {
		c.Observe("R", tuple.New(s, tuple.Time(i), tuple.IntValue(int64(i%10))))
	}
	if c.Count("R") != 500 {
		t.Errorf("Count = %d", c.Count("R"))
	}
	e := c.Seal(2*time.Second, nil)
	if got := e.Rate("R"); got != 250 {
		t.Errorf("rate = %g, want 500/2s = 250", got)
	}
	// Seal resets.
	if c.Count("R") != 0 {
		t.Error("Seal did not reset the collector")
	}
}

func TestCollectorSelectivityFKJoin(t *testing.T) {
	// R.a uniform over 100 keys, S.a uniform over the same 100 keys:
	// true selectivity = 1/100.
	c := NewCollector(512, 256, 7)
	rs := tuple.NewSchema("R.a")
	ss := tuple.NewSchema("S.a")
	for i := 0; i < 2000; i++ {
		c.Observe("R", tuple.New(rs, tuple.Time(i), tuple.IntValue(int64(i%100))))
		c.Observe("S", tuple.New(ss, tuple.Time(i), tuple.IntValue(int64((i*7)%100))))
	}
	p := query.Predicate{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}}
	e := c.Seal(time.Second, []query.Predicate{p})
	sel := e.Selectivity(p)
	if sel < 0.005 || sel > 0.02 {
		t.Errorf("estimated sel = %g, want ~0.01", sel)
	}
}

func TestCollectorSelectivityDisjointFallsBack(t *testing.T) {
	// Disjoint domains: sample join finds nothing; the KMV fallback
	// yields 1/max(distinct) rather than zero.
	c := NewCollector(64, 64, 3)
	rs := tuple.NewSchema("R.a")
	ss := tuple.NewSchema("S.a")
	for i := 0; i < 200; i++ {
		c.Observe("R", tuple.New(rs, 0, tuple.IntValue(int64(i))))
		c.Observe("S", tuple.New(ss, 0, tuple.IntValue(int64(100000+i))))
	}
	p := query.Predicate{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}}
	e := c.Seal(time.Second, []query.Predicate{p})
	sel := e.Selectivity(p)
	if sel <= 0 || sel > 0.05 {
		t.Errorf("fallback sel = %g, want small positive", sel)
	}
}

func TestCollectorUnknownRelationPredicate(t *testing.T) {
	c := NewCollector(8, 8, 1)
	s := tuple.NewSchema("R.a")
	c.Observe("R", tuple.New(s, 0, tuple.IntValue(1)))
	p := query.Predicate{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "Z", Name: "a"}}
	e := c.Seal(time.Second, []query.Predicate{p})
	// No estimate recorded; falls back to default.
	if _, ok := e.Sels[p.String()]; ok {
		t.Error("selectivity for unobserved relation should be absent")
	}
}

func TestEstimatesString(t *testing.T) {
	e := NewEstimates(0.01)
	e.SetRate("R", 5)
	if e.String() == "" {
		t.Error("String should render something")
	}
	// Deterministic across calls.
	if e.String() != e.String() {
		t.Error("String not deterministic")
	}
}

func TestCloneIndependence(t *testing.T) {
	e := NewEstimates(0.01)
	e.SetRate("R", 5)
	c := e.Clone()
	c.SetRate("R", 10)
	if e.Rate("R") != 5 {
		t.Error("Clone shares state with original")
	}
}

func TestEstimatesCloneIndependence(t *testing.T) {
	e := NewEstimates(0.05)
	e.SetRate("R", 100)
	e.SetSelectivity(query.Predicate{Left: query.Attr{Rel: "R", Name: "a"},
		Right: query.Attr{Rel: "S", Name: "a"}}, 0.2)
	e.Windows["R"] = time.Second
	c := e.Clone()
	c.SetRate("R", 999)
	c.Windows["R"] = time.Minute
	if e.Rate("R") != 100 || e.Windows["R"] != time.Second {
		t.Error("Clone shares state with the original")
	}
	if c.Window("R", 0) != time.Minute || c.Window("unknown", 7) != 7 {
		t.Error("Window lookup broken on clone")
	}
}

func TestBlendNilSides(t *testing.T) {
	e := NewEstimates(0.05)
	e.SetRate("R", 100)
	if got := Blend(nil, e, 0.5); got.Rate("R") != 100 {
		t.Error("Blend(nil, e) lost rates")
	}
	if got := Blend(e, nil, 0.5); got.Rate("R") != 100 {
		t.Error("Blend(e, nil) lost rates")
	}
	// One-sided keys are taken as-is; two-sided keys blend.
	o := NewEstimates(0.05)
	o.SetRate("R", 200)
	o.SetRate("S", 50)
	got := Blend(e, o, 0.25)
	if got.Rate("S") != 50 {
		t.Errorf("one-sided key: %g", got.Rate("S"))
	}
	if want := 0.25*200 + 0.75*100; got.Rate("R") != want {
		t.Errorf("blended rate = %g, want %g", got.Rate("R"), want)
	}
}

func TestSelectivityFallbacks(t *testing.T) {
	p := query.Predicate{Left: query.Attr{Rel: "R", Name: "a"},
		Right: query.Attr{Rel: "S", Name: "a"}}
	e := NewEstimates(0)
	if got := e.Selectivity(p); got != 0.01 {
		t.Errorf("hard fallback = %g, want 0.01", got)
	}
	e = NewEstimates(0.2)
	if got := e.Selectivity(p); got != 0.2 {
		t.Errorf("default fallback = %g, want 0.2", got)
	}
	e.SetSelectivity(p, 0.7)
	if got := e.Selectivity(p); got != 0.7 {
		t.Errorf("recorded = %g, want 0.7", got)
	}
}

// TestCollectorDefaultSelectivity: a predicate the samples never saw
// is sealed at the collector's fallback selectivity.
func TestCollectorDefaultSelectivity(t *testing.T) {
	c := NewCollector(16, 16, 1)
	est := c.Seal(time.Second, nil)
	p := query.Predicate{Left: query.Attr{Rel: "X", Name: "a"},
		Right: query.Attr{Rel: "Y", Name: "a"}}
	if got := est.Selectivity(p); got != defaultSelectivity {
		t.Errorf("default selectivity = %g, want %g", got, defaultSelectivity)
	}
}

func TestKMVSmallK(t *testing.T) {
	// k < 2 is clamped to 2; duplicate adds are ignored.
	s := NewKMV(1)
	for i := 0; i < 100; i++ {
		s.Add(tuple.IntValue(int64(i % 3)))
	}
	est := s.Estimate()
	if est < 1 || est > 30 {
		t.Errorf("KMV(1) over 3 distinct = %g", est)
	}
	empty := NewKMV(8)
	if got := empty.Estimate(); got != 0 {
		t.Errorf("empty sketch estimate = %g", got)
	}
}

func TestKMVAccuracyUnsaturated(t *testing.T) {
	// Below k distinct values the estimate is exact.
	s := NewKMV(64)
	for i := 0; i < 40; i++ {
		s.Add(tuple.IntValue(int64(i)))
		s.Add(tuple.IntValue(int64(i))) // duplicates must not count
	}
	if got := s.Estimate(); got != 40 {
		t.Errorf("unsaturated estimate = %g, want 40", got)
	}
}

// TestCollectorConcurrent observes from several goroutines while two
// others seal, and requires every observation to land in exactly one
// sealed snapshot. Under -race it covers the state Observe and Seal
// share: the per-schema sketch resolution and Seal's sample-join table.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(256, 16, 1)
	s := tuple.NewSchema("R.a", "R."+tuple.EventTime)
	self := []query.Predicate{{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "R", Name: "a"}}}
	var mu sync.Mutex
	sealed := 0.0
	seal := func() {
		e := c.Seal(time.Second, self)
		mu.Lock()
		sealed += e.Rates["R"]
		mu.Unlock()
	}
	done := make(chan struct{})
	var sealers, writers sync.WaitGroup
	for range 2 {
		sealers.Add(1)
		go func() {
			defer sealers.Done()
			for {
				select {
				case <-done:
					return
				default:
					seal()
				}
			}
		}()
	}
	const nWriters, perWriter = 4, 5000
	for range nWriters {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range perWriter {
				c.Observe("R", tuple.New(s, tuple.Time(i), tuple.IntValue(int64(i%50)), tuple.IntValue(int64(i))))
			}
		}()
	}
	writers.Wait()
	close(done)
	sealers.Wait()
	seal()
	if sealed != nWriters*perWriter {
		t.Fatalf("sealed %v observations, want %d", sealed, nWriters*perWriter)
	}
}

// TestReservoirKeepsCopies: the reservoir copies the tuples it admits,
// since an engine recycles an ingested tuple once its Observer returns —
// a sample that kept the pointer would read whatever the tuple became.
func TestReservoirKeepsCopies(t *testing.T) {
	s := tuple.NewSchema("R.a", "R.τ")
	r := NewReservoir(4, 1)
	tp := tuple.New(s, 1, tuple.IntValue(7), tuple.IntValue(1))
	for i := 0; i < 100; i++ {
		tp.Values[0], tp.TS = tuple.IntValue(int64(i)), tuple.Time(i)
		r.Add(tp)
	}
	want := fmt.Sprint(r.Items())
	tp.Poison()
	if got := fmt.Sprint(r.Items()); got != want {
		t.Fatalf("sample changed with the observed tuple: %s, then %s", want, got)
	}
	for _, it := range r.Items() {
		if it == tp || it.Values[0].Int() != int64(it.TS) {
			t.Fatalf("sample item %v is the observed tuple, or mixes two of its states", it)
		}
	}
}
