// Package stats gathers and estimates the data characteristics that drive
// CLASH's cost-based optimization: per-relation arrival rates, per-attribute
// distinct counts, and pairwise equi-join selectivities.
//
// Statistics are epoch-local (Sec. VI-A of the paper): a Collector
// accumulates raw observations during an epoch; Seal converts them into an
// Estimates snapshot that the optimizer consumes in the next epoch.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/tuple"
)

// Estimates is an immutable snapshot of data characteristics: everything
// the cost model (Eq. 1) needs. Rates are tuples per second; selectivities
// are keyed by normalized predicate strings.
type Estimates struct {
	Rates      map[string]float64 // relation -> tuples/sec
	Sels       map[string]float64 // predicate signature -> selectivity
	DefaultSel float64            // fallback when a predicate was never observed
	Windows    map[string]time.Duration
	// Degrees holds the per-attribute degree summaries (degree.go),
	// keyed by qualified attribute name ("R.a"). An absent entry means
	// the attribute's distribution is unknown — the cost model treats
	// it as uniform.
	Degrees map[string]*AttrDegrees
}

// NewEstimates returns an empty snapshot with the given fallback
// selectivity (the paper's ILP experiments use rate^-1).
func NewEstimates(defaultSel float64) *Estimates {
	return &Estimates{
		Rates:      map[string]float64{},
		Sels:       map[string]float64{},
		DefaultSel: defaultSel,
		Windows:    map[string]time.Duration{},
		Degrees:    map[string]*AttrDegrees{},
	}
}

// Degree returns the degree summary of the qualified attribute, or nil
// when its distribution was never sketched.
func (e *Estimates) Degree(qualifiedAttr string) *AttrDegrees {
	return e.Degrees[qualifiedAttr]
}

// SetDegree records an attribute's degree summary.
func (e *Estimates) SetDegree(qualifiedAttr string, d *AttrDegrees) {
	if e.Degrees == nil {
		e.Degrees = map[string]*AttrDegrees{}
	}
	e.Degrees[qualifiedAttr] = d
}

// Rate returns the arrival rate of the relation, or 1 if unknown (a
// neutral default that keeps cost terms finite).
func (e *Estimates) Rate(rel string) float64 {
	if r, ok := e.Rates[rel]; ok && r > 0 {
		return r
	}
	return 1
}

// SetRate records the arrival rate of a relation.
func (e *Estimates) SetRate(rel string, perSec float64) { e.Rates[rel] = perSec }

// Selectivity returns the estimated selectivity of the predicate.
func (e *Estimates) Selectivity(p query.Predicate) float64 {
	if s, ok := e.Sels[p.String()]; ok && s > 0 {
		return s
	}
	if e.DefaultSel > 0 {
		return e.DefaultSel
	}
	return 0.01
}

// SetSelectivity records a predicate selectivity.
func (e *Estimates) SetSelectivity(p query.Predicate, sel float64) {
	e.Sels[p.String()] = sel
}

// Window returns the relation's window, or def when unknown.
func (e *Estimates) Window(rel string, def time.Duration) time.Duration {
	if w, ok := e.Windows[rel]; ok && w > 0 {
		return w
	}
	return def
}

// Clone returns a deep copy, used when blending epochs.
func (e *Estimates) Clone() *Estimates {
	c := NewEstimates(e.DefaultSel)
	for k, v := range e.Rates {
		c.Rates[k] = v
	}
	for k, v := range e.Sels {
		c.Sels[k] = v
	}
	for k, v := range e.Windows {
		c.Windows[k] = v
	}
	for k, v := range e.Degrees {
		c.Degrees[k] = v.clone()
	}
	return c
}

// Blend exponentially ages old estimates into new ones:
// out = alpha*new + (1-alpha)*old, per key. Keys only present on one side
// are taken as-is. Blending smooths epoch-to-epoch noise while letting the
// optimizer react within a couple of epochs (Fig. 5). Degree summaries
// are taken by reference from both sides, not copied: a sealed summary is
// immutable, so out shares them with old and new.
func Blend(old, new *Estimates, alpha float64) *Estimates {
	if old == nil {
		return new.Clone()
	}
	if new == nil {
		return old.Clone()
	}
	out := NewEstimates(new.DefaultSel)
	for k, v := range old.Rates {
		out.Rates[k] = v
	}
	for k, v := range old.Sels {
		out.Sels[k] = v
	}
	for k, v := range old.Windows {
		out.Windows[k] = v
	}
	// Degree sketches of relations without a fresh observation are reused
	// by reference: a sealed sketch is immutable, and re-cloning it every
	// epoch recomputed estimates for stores untouched by churn (and broke
	// object-identity caching downstream).
	for k, v := range old.Degrees {
		out.Degrees[k] = v
	}
	for k, v := range new.Rates {
		if o, ok := out.Rates[k]; ok {
			out.Rates[k] = alpha*v + (1-alpha)*o
		} else {
			out.Rates[k] = v
		}
	}
	for k, v := range new.Sels {
		if o, ok := out.Sels[k]; ok {
			out.Sels[k] = alpha*v + (1-alpha)*o
		} else {
			out.Sels[k] = v
		}
	}
	for k, v := range new.Windows {
		out.Windows[k] = v
	}
	// Degree summaries are sketches, not scalars: blending counts from
	// different epochs is meaningless, so the newest observation wins
	// per attribute (old entries survive until re-observed).
	for k, v := range new.Degrees {
		out.Degrees[k] = v
	}
	return out
}

// String renders the snapshot deterministically for logs and golden tests.
func (e *Estimates) String() string {
	var rels []string
	for r := range e.Rates {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	var b []byte
	for _, r := range rels {
		b = fmt.Appendf(b, "rate(%s)=%.3g ", r, e.Rates[r])
	}
	var ps []string
	for p := range e.Sels {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	for _, p := range ps {
		b = fmt.Appendf(b, "sel(%s)=%.3g ", p, e.Sels[p])
	}
	return string(b)
}

// KMV is a k-minimum-values sketch for distinct-count estimation. It keeps
// the k smallest 64-bit hashes observed; the distinct count is estimated
// as (k-1) / kth-smallest-normalized-hash.
type KMV struct {
	k         int
	hashes    []uint64 // sorted ascending, distinct, at most k
	saturated bool     // true once any distinct value fell outside the k minima
}

// NewKMV returns a sketch keeping k minimum values (k >= 2).
func NewKMV(k int) *KMV {
	if k < 2 {
		k = 2
	}
	return &KMV{k: k, hashes: make([]uint64, 0, k)}
}

// Add observes a value.
func (s *KMV) Add(v tuple.Value) { s.AddHash(v.Hash()) }

// AddHash observes a pre-hashed value. The collector calls it once per
// attribute of every ingested tuple, so it costs the same whether the
// sketch is filling or full: one binary search over the sorted minima
// (which is also the membership test) and at most one shift, no
// allocation.
func (s *KMV) AddHash(h uint64) {
	n := len(s.hashes)
	if n == s.k && h > s.hashes[n-1] {
		s.saturated = true
		return
	}
	i, j := 0, n // first position whose hash is >= h
	for i < j {
		if m := int(uint(i+j) >> 1); s.hashes[m] < h {
			i = m + 1
		} else {
			j = m
		}
	}
	if i < n && s.hashes[i] == h {
		return
	}
	if n < s.k {
		s.hashes = append(s.hashes, 0)
	} else {
		s.saturated = true // the kth minimum falls out
	}
	copy(s.hashes[i+1:], s.hashes[i:])
	s.hashes[i] = h
}

// reset empties the sketch, keeping its array.
func (s *KMV) reset() {
	s.hashes = s.hashes[:0]
	s.saturated = false
}

// Estimate returns the estimated number of distinct values observed.
func (s *KMV) Estimate() float64 {
	if !s.saturated {
		return float64(len(s.hashes))
	}
	kth := float64(s.hashes[s.k-1]) / float64(^uint64(0))
	if kth <= 0 {
		return float64(s.k)
	}
	return float64(s.k-1) / kth
}

// Reservoir keeps a uniform sample of up to k tuples (Vitter's algorithm R).
// It keeps copies: the tuple Add is given need only be valid while Add
// runs (an engine recycles its ingested tuples once observed), and its
// values go into one of k slots that the reservoir reuses from epoch to
// epoch.
type Reservoir struct {
	k     int
	n     int
	items []*tuple.Tuple // items[i] is &slots[i]
	slots []tuple.Tuple
	rng   *rng.RNG
}

// NewReservoir returns a reservoir of capacity k seeded deterministically.
func NewReservoir(k int, seed uint64) *Reservoir {
	return &Reservoir{k: k, rng: rng.New(seed)}
}

// Add observes a tuple, copying it into the sample if it is drawn.
func (r *Reservoir) Add(t *tuple.Tuple) {
	r.n++
	if i := len(r.items); i < r.k {
		r.items = append(r.items, r.keep(i, t))
		return
	}
	if j := r.rng.Intn(r.n); j < r.k {
		r.keep(j, t)
	}
}

// keep copies t into slot i, over the slot's value array.
func (r *Reservoir) keep(i int, t *tuple.Tuple) *tuple.Tuple {
	if r.slots == nil {
		r.slots = make([]tuple.Tuple, r.k)
	}
	s := &r.slots[i]
	s.Schema, s.TS = t.Schema, t.TS
	s.Values = append(s.Values[:0], t.Values...)
	return s
}

// Items returns the current sample, valid until the next Add or reset.
// Callers must not mutate it.
func (r *Reservoir) Items() []*tuple.Tuple { return r.items }

// reset empties the reservoir and restarts its generator from seed, as
// NewReservoir(k, seed) would, keeping the item array and the slots.
func (r *Reservoir) reset(seed uint64) {
	clear(r.items)
	r.items = r.items[:0]
	r.n = 0
	*r.rng = *rng.New(seed)
}

// relStats accumulates one relation's raw observations within an epoch.
type relStats struct {
	count    int64
	sample   *Reservoir
	distinct map[string]*KMV       // unqualified attribute -> distinct-count sketch
	attrs    map[string]*attrStats // qualified attribute -> its sketches
	// schema is the last schema the relation was observed under and cols
	// its resolution, so Observe touches sketches by position alone.
	schema *tuple.Schema
	cols   []colSketch
	// idle holds the emptied sketches of attributes observed in an earlier
	// epoch but not yet in this one, for resolve to take back.
	idle map[string]*attrStats
}

// reset empties rs for another epoch of its relation, keeping every
// sketch for reuse: the sample restarts from seed, and the attributes'
// sketches wait, emptied, in idle.
func (rs *relStats) reset(seed uint64) {
	rs.count = 0
	rs.sample.reset(seed)
	for name, a := range rs.attrs {
		a.distinct.reset()
		a.heavy.reset()
		rs.idle[name] = a
	}
	clear(rs.attrs)
	clear(rs.distinct)
	rs.schema = nil
	rs.cols = rs.cols[:0]
}

// attrStats is the pair of sketches one qualified attribute feeds. The
// distinct-count sketch is shared by every qualified name with the same
// unqualified one: a predicate side reads it as "R.a" of relation R.
type attrStats struct {
	distinct *KMV
	heavy    *SpaceSaving
}

// colSketch is one sketched column position of a resolved schema.
type colSketch struct {
	pos int
	attrStats
}

// defaultSelectivity is the sealed estimates' fallback for predicates
// the samples never observed.
const defaultSelectivity = 0.01

// heavyK is the heavy-hitter sketch capacity: monitored keys per
// attribute.
const heavyK = 16

// Collector accumulates per-epoch observations. It is safe for concurrent
// use by the source tasks of the runtime.
type Collector struct {
	mu      sync.Mutex
	sampleK int
	sketchK int
	seed    uint64
	rels    map[string]*relStats
	// spare holds the relStats of relations not yet observed this epoch,
	// emptied by Seal for Observe to take back, and spareMap the emptied
	// map that the next Seal swaps in for rels.
	spare    map[string]*relStats
	spareMap map[string]*relStats
	// sealMu serializes Seal, whose sample joins share one table that
	// keeps its capacity from epoch to epoch.
	sealMu sync.Mutex
	counts valueCounts
}

// NewCollector returns a collector sampling up to sampleK tuples per
// relation per epoch and sketching distincts with sketchK minimum values.
func NewCollector(sampleK, sketchK int, seed uint64) *Collector {
	return &Collector{sampleK: sampleK, sketchK: sketchK, seed: seed,
		rels: map[string]*relStats{}, spare: map[string]*relStats{}, spareMap: map[string]*relStats{}}
}

// Observe records the arrival of one tuple of the given relation: it
// counts the tuple, offers it whole to the relation's sample, and adds
// each attribute's value hash to that attribute's distinct-count and
// heavy-hitter sketches. The event-time pseudo-attribute
// (tuple.EventTime) is not sketched: it never repeats, so it would cost
// every tuple a full heavy-hitter scan for a summary no predicate or
// partitioning can name.
func (c *Collector) Observe(rel string, t *tuple.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.rels[rel]
	if rs == nil {
		if rs = c.spare[rel]; rs != nil {
			delete(c.spare, rel)
		} else {
			rs = &relStats{
				sample:   NewReservoir(c.sampleK, c.seed^hashString(rel)),
				distinct: map[string]*KMV{},
				attrs:    map[string]*attrStats{},
				idle:     map[string]*attrStats{},
			}
		}
		c.rels[rel] = rs
	}
	rs.count++
	rs.sample.Add(t)
	if t.Schema != rs.schema {
		c.resolve(rs, t.Schema)
	}
	for _, col := range rs.cols {
		h := t.Values[col.pos].Hash()
		col.distinct.AddHash(h)
		col.heavy.Add(h)
	}
}

// resolve points rs's column cache at schema s, creating the sketches of
// attributes seen for the first time this epoch.
func (c *Collector) resolve(rs *relStats, s *tuple.Schema) {
	rs.schema = s
	rs.cols = rs.cols[:0]
	for i, name := range s.Names() {
		short := name[strings.LastIndexByte(name, '.')+1:]
		if short == tuple.EventTime {
			continue
		}
		a := rs.attrs[name]
		if a == nil {
			d := rs.distinct[short]
			if a = rs.idle[name]; a != nil {
				delete(rs.idle, name)
				if d == nil {
					rs.distinct[short] = a.distinct
				} else {
					a.distinct = d
				}
			} else {
				if d == nil {
					d = NewKMV(c.sketchK)
					rs.distinct[short] = d
				}
				a = &attrStats{distinct: d, heavy: NewSpaceSaving(heavyK)}
			}
			rs.attrs[name] = a
		}
		rs.cols = append(rs.cols, colSketch{pos: i, attrStats: *a})
	}
}

// Count returns the number of observations for the relation this epoch.
func (c *Collector) Count(rel string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rs := c.rels[rel]; rs != nil {
		return rs.count
	}
	return 0
}

// Seal converts the collected observations into an Estimates snapshot.
// epochLen is the wall duration of the epoch (rate = count/epochLen).
// preds lists the predicates whose selectivity should be estimated from
// the samples. Seal resets the collector for the next epoch, and hands
// the sketches it read back to it, emptied, for the epoch after.
func (c *Collector) Seal(epochLen time.Duration, preds []query.Predicate) *Estimates {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()
	c.mu.Lock()
	rels := c.rels
	c.rels, c.spareMap = c.spareMap, nil
	c.mu.Unlock()
	defer c.recycle(rels)

	e := NewEstimates(defaultSelectivity)
	secs := epochLen.Seconds()
	if secs <= 0 {
		secs = 1
	}
	for name, rs := range rels {
		e.Rates[name] = float64(rs.count) / secs
		for attr, a := range rs.attrs {
			e.Degrees[attr] = &AttrDegrees{Count: a.heavy.N(), Distinct: a.distinct.Estimate(), Top: a.heavy.Top(heavyK)}
		}
	}
	for _, p := range preds {
		a, b := rels[p.Left.Rel], rels[p.Right.Rel]
		if a == nil || b == nil {
			continue
		}
		if sel, ok := estimateSelectivity(p, a, b, &c.counts); ok {
			e.Sels[p.String()] = sel
		}
	}
	return e
}

// recycle empties the relStats Seal has read and hands them, and their
// map, back to the collector.
func (c *Collector) recycle(rels map[string]*relStats) {
	for name, rs := range rels {
		rs.reset(c.seed ^ hashString(name))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, rs := range rels {
		c.spare[name] = rs
	}
	clear(rels)
	c.spareMap = rels
}

// estimateSelectivity estimates sel(p) = |A ⋈p B| / (|A|·|B|) by joining
// the two reservoir samples; when the samples produce no matches it falls
// back to the distinct-count bound 1/max(d_A, d_B) (exact for key–foreign
// key joins under the containment assumption). counts is the caller's
// table for the join, emptied here.
func estimateSelectivity(p query.Predicate, a, b *relStats, counts *valueCounts) (float64, bool) {
	la, _ := p.Side(p.Left.Rel)
	lb, _ := p.Side(p.Right.Rel)
	sa, sb := a.sample.Items(), b.sample.Items()
	if len(sa) > 0 && len(sb) > 0 {
		counts.reset()
		ca := sampleColumn{name: la.Qualified()}
		for _, t := range sa {
			if v, ok := ca.get(t); ok {
				counts.add(v)
			}
		}
		matches := 0
		cb := sampleColumn{name: lb.Qualified()}
		for _, t := range sb {
			if v, ok := cb.get(t); ok {
				matches += counts.get(v)
			}
		}
		if matches > 0 {
			return float64(matches) / (float64(len(sa)) * float64(len(sb))), true
		}
	}
	da := distinctOf(a, la.Name)
	db := distinctOf(b, lb.Name)
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

// sampleColumn reads one qualified attribute out of sample tuples. It
// resolves the attribute's position once per schema, not once per tuple:
// a relation's sample is almost always one schema.
type sampleColumn struct {
	name   string
	schema *tuple.Schema
	pos    int
}

// get returns the tuple's value of the attribute, as t.Get(name) does.
func (c *sampleColumn) get(t *tuple.Tuple) (tuple.Value, bool) {
	if t.Schema != c.schema {
		c.schema, c.pos = t.Schema, t.Schema.Index(c.name)
	}
	if c.pos < 0 {
		return tuple.Value{}, false
	}
	return t.Values[c.pos], true
}

// valueCounts counts values by equality (==). A value is keyed by what
// determines it (tuple.MakeValue): a string by its text, any other kind
// by its kind and payload — keys the map hashes without the generic
// per-field hash a tuple.Value key costs.
type valueCounts struct {
	nums map[[2]int64]int
	strs map[string]int
}

func (c *valueCounts) reset() {
	if c.nums == nil {
		c.nums, c.strs = map[[2]int64]int{}, map[string]int{}
	}
	clear(c.nums)
	clear(c.strs)
}

func (c *valueCounts) add(v tuple.Value) {
	if v.Kind() == tuple.String {
		c.strs[v.Str()]++
	} else {
		c.nums[[2]int64{int64(v.Kind()), v.Int()}]++
	}
}

func (c *valueCounts) get(v tuple.Value) int {
	if v.Kind() == tuple.String {
		return c.strs[v.Str()]
	}
	return c.nums[[2]int64{int64(v.Kind()), v.Int()}]
}

func distinctOf(rs *relStats, attr string) float64 {
	if sk := rs.distinct[attr]; sk != nil {
		return sk.Estimate()
	}
	return 0
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
