package mir

import (
	"strings"
	"sync"

	"clash/internal/query"
)

// Memo caches the pure functions of MIR enumeration across churn steps:
// per-query subset enumeration, per-(query, MIR) usability verdicts, and
// full Algorithm-1 candidate sets. Every entry is keyed by canonical
// content fingerprints (the MIR key of a query's relation set plus its
// predicate set), so a query whose predicates changed simply misses —
// invalidation is implicit and scoped to exactly the changed relations.
// Entries untouched for the retention window are evicted by Advance.
//
// The memo is owned by the adaptive Controller and handed to the
// optimizer per solve; it is safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	gen     uint64
	keep    uint64
	hits    uint64
	misses  uint64
	enum    map[string]*memoEntry[[]*MIR]
	verdict map[string]*memoEntry[bool]
	cands   map[string]*memoEntry[map[string][]*ProbeOrder]
	fps     map[*query.Query]*memoEntry[string]
}

type memoEntry[T any] struct {
	val T
	gen uint64
}

// NewMemo returns a memo retaining entries for keep generations
// (keep <= 0 defaults to 8).
func NewMemo(keep int) *Memo {
	if keep <= 0 {
		keep = 8
	}
	return &Memo{
		keep:    uint64(keep),
		enum:    map[string]*memoEntry[[]*MIR]{},
		verdict: map[string]*memoEntry[bool]{},
		cands:   map[string]*memoEntry[map[string][]*ProbeOrder]{},
		fps:     map[*query.Query]*memoEntry[string]{},
	}
}

// MemoStats is a point-in-time view of memo effectiveness.
type MemoStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// Stats returns cumulative hit/miss counters and the live entry count.
func (mo *Memo) Stats() MemoStats {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return MemoStats{
		Hits:    mo.hits,
		Misses:  mo.misses,
		Entries: len(mo.enum) + len(mo.verdict) + len(mo.cands),
	}
}

// Advance starts a new generation and evicts entries not touched within
// the retention window. Call once per optimization step.
func (mo *Memo) Advance() {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	mo.gen++
	if mo.gen < mo.keep {
		return
	}
	cutoff := mo.gen - mo.keep
	evict(mo.enum, cutoff)
	evict(mo.verdict, cutoff)
	evict(mo.cands, cutoff)
	evict(mo.fps, cutoff)
}

func evict[K comparable, T any](m map[K]*memoEntry[T], cutoff uint64) {
	for k, e := range m {
		if e.gen <= cutoff {
			delete(m, k)
		}
	}
}

// Fingerprint returns the canonical identity of a query's join shape:
// its relation set plus normalized predicate set. Queries with equal
// fingerprints induce identical MIRs and candidate orders.
func Fingerprint(q *query.Query) string {
	return New(q.Relations, q.Preds).Key()
}

// Fingerprint is Fingerprint(q) worked out once per query object while
// the object is in use: the churn loop hands the optimizer the same
// installed queries step after step, and a query is not changed after it
// is built. The lookups count neither as hits nor as misses.
func (mo *Memo) Fingerprint(q *query.Query) string {
	mo.mu.Lock()
	e, ok := mo.fps[q]
	if ok {
		e.gen = mo.gen
	}
	mo.mu.Unlock()
	if ok {
		return e.val
	}
	fp := Fingerprint(q)
	mo.mu.Lock()
	mo.fps[q] = &memoEntry[string]{val: fp, gen: mo.gen}
	mo.mu.Unlock()
	return fp
}

// Enumerate is Enumerate with per-query caching: each query's connected
// subsets are computed once per fingerprint, and the merged result is
// deduplicated and sorted exactly as the uncached version.
func (mo *Memo) Enumerate(queries []*query.Query) []*MIR {
	byKey := map[string]*MIR{}
	for _, q := range queries {
		fp := mo.Fingerprint(q)
		mo.mu.Lock()
		e, ok := mo.enum[fp]
		if ok {
			e.gen = mo.gen
			mo.hits++
		} else {
			mo.misses++
		}
		mo.mu.Unlock()
		var ms []*MIR
		if ok {
			ms = e.val
		} else {
			ms = enumerateQuery(q)
			mo.mu.Lock()
			mo.enum[fp] = &memoEntry[[]*MIR]{val: ms, gen: mo.gen}
			mo.mu.Unlock()
		}
		for _, m := range ms {
			if _, dup := byKey[m.Key()]; !dup {
				byKey[m.Key()] = m
			}
		}
	}
	return sortMIRs(byKey)
}

// Candidates is Candidates with two cache layers: usability verdicts
// keyed by (query fingerprint, MIR key), and the full candidate map
// keyed by (query fingerprint, usable MIR key set). Cache hits return
// probe orders rebound to the caller's query object, sharing the
// immutable element slices.
func (mo *Memo) Candidates(q *query.Query, mirs []*MIR) map[string][]*ProbeOrder {
	fp := Fingerprint(q)
	qset := q.RelationSet()
	var usable []*MIR
	var usableKeys []string
	for _, m := range mirs {
		if !usableQuick(q, qset, m) {
			continue
		}
		if !mo.usable(fp, q, m) {
			continue
		}
		usable = append(usable, m)
		usableKeys = append(usableKeys, m.Key())
	}

	ck := fp + "||" + strings.Join(usableKeys, ";")
	mo.mu.Lock()
	if e, ok := mo.cands[ck]; ok {
		e.gen = mo.gen
		mo.hits++
		cached := e.val
		mo.mu.Unlock()
		return rebind(cached, q)
	}
	mo.misses++
	mo.mu.Unlock()

	fresh := candidatesFromUsable(q, usable)
	mo.mu.Lock()
	mo.cands[ck] = &memoEntry[map[string][]*ProbeOrder]{val: fresh, gen: mo.gen}
	mo.mu.Unlock()
	return fresh
}

func (mo *Memo) usable(fp string, q *query.Query, m *MIR) bool {
	vk := fp + "|" + m.Key()
	mo.mu.Lock()
	if e, ok := mo.verdict[vk]; ok {
		e.gen = mo.gen
		mo.hits++
		v := e.val
		mo.mu.Unlock()
		return v
	}
	mo.misses++
	mo.mu.Unlock()
	v := usableVerdict(q, m)
	mo.mu.Lock()
	mo.verdict[vk] = &memoEntry[bool]{val: v, gen: mo.gen}
	mo.mu.Unlock()
	return v
}

// rebind clones the cached probe orders onto the caller's query object
// (cached orders may reference a content-identical query from an earlier
// churn step); the element slices are immutable and shared.
func rebind(cached map[string][]*ProbeOrder, q *query.Query) map[string][]*ProbeOrder {
	out := make(map[string][]*ProbeOrder, len(cached))
	for start, orders := range cached {
		clones := make([]*ProbeOrder, len(orders))
		for i, po := range orders {
			clones[i] = &ProbeOrder{Query: q, Elems: po.Elems}
		}
		out[start] = clones
	}
	return out
}
