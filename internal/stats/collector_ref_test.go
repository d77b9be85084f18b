package stats

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/tuple"
)

// refCollector is the collector as it was before Observe resolved
// schemas once and the sample join went positional: a map lookup per
// attribute of every tuple under names re-split on every call, every
// attribute sketched (the event-time pseudo-attribute included), and a
// name lookup per sample tuple in the join. Kept as the reference the
// current collector is differenced against.
type refCollector struct {
	mu         sync.Mutex
	sampleK    int
	sketchK    int
	heavyK     int
	seed       uint64
	rels       map[string]*refRelStats
	defaultSel float64
}

type refRelStats struct {
	count       int64
	first, last tuple.Time
	sample      *Reservoir
	distinct    map[string]*KMV
	heavy       map[string]*SpaceSaving
}

func newRefCollector(sampleK, sketchK int, seed uint64) *refCollector {
	return &refCollector{sampleK: sampleK, sketchK: sketchK, heavyK: 16, seed: seed,
		rels: map[string]*refRelStats{}, defaultSel: 0.01}
}

func refLastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

func (c *refCollector) Observe(rel string, t *tuple.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.rels[rel]
	if rs == nil {
		rs = &refRelStats{
			sample:   NewReservoir(c.sampleK, c.seed^hashString(rel)),
			distinct: map[string]*KMV{},
			heavy:    map[string]*SpaceSaving{},
			first:    t.TS,
		}
		c.rels[rel] = rs
	}
	rs.count++
	if t.TS < rs.first {
		rs.first = t.TS
	}
	if t.TS > rs.last {
		rs.last = t.TS
	}
	rs.sample.Add(t)
	for i, name := range t.Schema.Names() {
		short := name
		if j := refLastDot(name); j >= 0 {
			short = name[j+1:]
		}
		sk := rs.distinct[short]
		if sk == nil {
			sk = NewKMV(c.sketchK)
			rs.distinct[short] = sk
		}
		h := t.Values[i].Hash()
		sk.AddHash(h)
		hv := rs.heavy[name]
		if hv == nil {
			hv = NewSpaceSaving(c.heavyK)
			rs.heavy[name] = hv
		}
		hv.Add(h)
	}
}

func (c *refCollector) Seal(epochLen time.Duration, preds []query.Predicate) *Estimates {
	c.mu.Lock()
	rels := c.rels
	c.rels = map[string]*refRelStats{}
	c.mu.Unlock()

	e := NewEstimates(c.defaultSel)
	secs := epochLen.Seconds()
	if secs <= 0 {
		secs = 1
	}
	for name, rs := range rels {
		e.Rates[name] = float64(rs.count) / secs
		for attr, hv := range rs.heavy {
			d := &AttrDegrees{Count: hv.N(), Top: hv.Top(c.heavyK)}
			short := attr
			if j := refLastDot(attr); j >= 0 {
				short = attr[j+1:]
			}
			d.Distinct = refDistinctOf(rs, short)
			e.Degrees[attr] = d
		}
	}
	for _, p := range preds {
		a, b := rels[p.Left.Rel], rels[p.Right.Rel]
		if a == nil || b == nil {
			continue
		}
		if sel, ok := refEstimateSelectivity(p, a, b); ok {
			e.Sels[p.String()] = sel
		}
	}
	return e
}

func refEstimateSelectivity(p query.Predicate, a, b *refRelStats) (float64, bool) {
	la, _ := p.Side(p.Left.Rel)
	lb, _ := p.Side(p.Right.Rel)
	sa, sb := a.sample.Items(), b.sample.Items()
	if len(sa) > 0 && len(sb) > 0 {
		idx := map[tuple.Value]int{}
		for _, t := range sa {
			if v, ok := t.Get(la.Qualified()); ok {
				idx[v]++
			}
		}
		matches := 0
		for _, t := range sb {
			if v, ok := t.Get(lb.Qualified()); ok {
				matches += idx[v]
			}
		}
		if matches > 0 {
			return float64(matches) / (float64(len(sa)) * float64(len(sb))), true
		}
	}
	da := refDistinctOf(a, la.Name)
	db := refDistinctOf(b, lb.Name)
	if da > 0 || db > 0 {
		d := da
		if db > d {
			d = db
		}
		if d < 1 {
			d = 1
		}
		return 1 / d, true
	}
	return 0, false
}

func refDistinctOf(rs *refRelStats, attr string) float64 {
	if sk := rs.distinct[attr]; sk != nil {
		return sk.Estimate()
	}
	return 0
}

// withoutEventTime returns the reference's estimates minus the degree
// entries of the event-time pseudo-attribute, which the collector no
// longer seals.
func withoutEventTime(e *Estimates) *Estimates {
	for attr := range e.Degrees {
		if attr == tuple.EventTime || strings.HasSuffix(attr, "."+tuple.EventTime) {
			delete(e.Degrees, attr)
		}
	}
	return e
}

// TestCollectorMatchesReference drives the collector and the reference
// through the same seeded random streams and requires every sealed
// snapshot to be deep-equal, bar the reference's event-time degrees. The
// streams cover what the per-schema cache and the positional sample join
// must get right:
//   - R alternates per tuple between two distinct *Schema values with
//     equal names, so every R tuple misses the cache;
//   - S is seen under schemas of two widths, the narrower one lacking
//     S.c, which predicates and sketches must then skip;
//   - T carries an engine-style ingest schema ending in T.τ, and U
//     unqualified names ("a", "τ");
//   - values of every kind over small domains, so sketches saturate and
//     sample joins both match and miss;
//   - predicates across relations, a self-join, and predicates naming an
//     unobserved relation or an attribute no schema has;
//   - Seal at random points, so epochs end mid-stream and some relations
//     go unobserved for a whole epoch.
func TestCollectorMatchesReference(t *testing.T) {
	r1 := tuple.NewSchema("R.a", "R.b", "R.τ")
	r2 := tuple.NewSchema("R.a", "R.b", "R.τ")
	sWide := tuple.NewSchema("S.a", "S.b", "S.c", "S.τ")
	sNarrow := tuple.NewSchema("S.a", "S.b", "S.τ")
	tIngest := tuple.NewSchema("T.c", "T.a", "T.τ")
	uBare := tuple.NewSchema("a", "τ")
	attr := func(rel, name string) query.Attr { return query.Attr{Rel: rel, Name: name} }
	preds := []query.Predicate{
		{Left: attr("R", "a"), Right: attr("S", "a")},
		{Left: attr("S", "c"), Right: attr("T", "c")},
		{Left: attr("T", "a"), Right: attr("R", "b")},
		{Left: attr("R", "a"), Right: attr("R", "b")}, // self-join
		{Left: attr("S", "b"), Right: attr("T", "a")},
		{Left: attr("R", "zz"), Right: attr("S", "a")}, // no schema has R.zz
		{Left: attr("R", "a"), Right: attr("Q", "a")},  // Q never observed
		{Left: attr("T", "a"), Right: attr("U", "a")},  // U's column is unqualified
	}
	for seed := uint64(1); seed <= 24; seed++ {
		g := rng.New(seed)
		domain := 2 + g.Intn(300)
		value := func() tuple.Value {
			k := int64(g.Intn(domain))
			switch g.Intn(10) {
			case 0:
				return tuple.StringValue(fmt.Sprint("k", k))
			case 1:
				return tuple.FloatValue(float64(k) / 2)
			case 2:
				return tuple.BoolValue(k%2 == 0)
			case 3:
				return tuple.NullValue()
			default:
				return tuple.IntValue(k)
			}
		}
		sampleK, sketchK := []int{4, 32, 256}[seed%3], []int{2, 16, 128}[seed%3]
		col, ref := NewCollector(sampleK, sketchK, seed), newRefCollector(sampleK, sketchK, seed)
		seals, rs := 0, 0
		for i := 0; i < 6000; i++ {
			ts := tuple.Time(i)
			var rel string
			var tp *tuple.Tuple
			switch g.Intn(5) {
			case 0:
				s := r1
				if rs++; rs%2 == 0 {
					s = r2
				}
				rel, tp = "R", tuple.New(s, ts, value(), value(), tuple.IntValue(int64(ts)))
			case 1:
				rel, tp = "S", tuple.New(sWide, ts, value(), value(), value(), tuple.IntValue(int64(ts)))
			case 2:
				rel, tp = "S", tuple.New(sNarrow, ts, value(), value(), tuple.IntValue(int64(ts)))
			case 3:
				rel, tp = "T", tuple.New(tIngest, ts, value(), value(), tuple.IntValue(int64(ts)))
			default:
				rel, tp = "U", tuple.New(uBare, ts, value(), tuple.IntValue(int64(ts)))
			}
			col.Observe(rel, tp)
			ref.Observe(rel, tp)
			if g.Intn(700) == 0 || i == 5999 {
				epoch := time.Duration(1+g.Intn(5)) * time.Second
				got, want := col.Seal(epoch, preds), withoutEventTime(ref.Seal(epoch, preds))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, seal %d at tuple %d: estimates differ\n got: %s %v\nwant: %s %v",
						seed, seals, i, got, got.Degrees, want, want.Degrees)
				}
				for attr := range got.Degrees {
					if strings.HasSuffix(attr, tuple.EventTime) {
						t.Fatalf("seed %d: event-time attribute %q sketched", seed, attr)
					}
				}
				seals++
			}
		}
		if seals < 2 {
			t.Fatalf("seed %d: only %d seals", seed, seals)
		}
	}
}
