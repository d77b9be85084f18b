package runtime

import (
	"sort"
	"strings"
	"sync"

	"clash/internal/query"
	"clash/internal/tuple"
)

// Ingestion is one input event for the reference oracle: the same stream
// a test feeds to the engine, in arrival order.
type Ingestion struct {
	Rel  string
	TS   tuple.Time
	Vals []tuple.Value
}

// ReferenceJoin computes the expected join results of a query over a
// complete input history with naive nested loops, using the engine's
// operational semantics: a result exists for every combination of one
// tuple per query relation such that all predicates hold and, with m the
// latest-arriving member, every other member u arrived before m and
// satisfies m.TS - u.TS ≤ window(rel(u)). The returned multiset uses the
// same canonical encoding as CanonicalResult, so engine output can be
// compared directly regardless of the probe orders chosen.
func ReferenceJoin(q *query.Query, cat *query.Catalog, defWindow tuple.Duration, inputs []Ingestion) map[string]int {
	type member struct {
		rel  string
		ts   tuple.Time
		seq  uint64
		vals map[string]tuple.Value
	}
	byRel := map[string][]member{}
	for i, in := range inputs {
		r := cat.Relation(in.Rel)
		if r == nil {
			continue
		}
		vals := map[string]tuple.Value{}
		for j, a := range r.Attrs {
			vals[in.Rel+"."+a] = in.Vals[j]
		}
		vals[in.Rel+"."+tuple.EventTime] = tuple.IntValue(int64(in.TS))
		byRel[in.Rel] = append(byRel[in.Rel], member{rel: in.Rel, ts: in.TS, seq: uint64(i + 1), vals: vals})
	}

	out := map[string]int{}
	chosen := make([]member, len(q.Relations))
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Relations) {
			// Predicates.
			for _, p := range q.Preds {
				var lv, rv tuple.Value
				var okL, okR bool
				for _, m := range chosen {
					if v, ok := m.vals[p.Left.Qualified()]; ok {
						lv, okL = v, true
					}
					if v, ok := m.vals[p.Right.Qualified()]; ok {
						rv, okR = v, true
					}
				}
				if !okL || !okR || lv != rv {
					return
				}
			}
			// Window + ordering: the latest member (by seq) bounds all.
			latest := chosen[0]
			for _, m := range chosen[1:] {
				if m.seq > latest.seq {
					latest = m
				}
			}
			for _, m := range chosen {
				if m.seq == latest.seq {
					continue
				}
				w := cat.Window(m.rel, defWindow)
				if w > 0 && int64(latest.ts)-int64(m.ts) > int64(w) {
					return
				}
			}
			// Canonical encoding.
			var parts []string
			for _, m := range chosen {
				for k, v := range m.vals {
					parts = append(parts, k+"="+v.String())
				}
			}
			sort.Strings(parts)
			out[strings.Join(parts, "|")]++
			return
		}
		for _, m := range byRel[q.Relations[i]] {
			chosen[i] = m
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// CanonicalResult encodes an engine result tuple in the oracle's
// canonical form: sorted attribute=value pairs joined with '|'.
func CanonicalResult(t *tuple.Tuple) string {
	names := t.Schema.Names()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + t.Values[i].String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// CollectSink is a thread-safe result collector for tests and examples.
type CollectSink struct {
	mu      sync.Mutex
	results map[string]int
}

// NewCollectSink returns an empty collector.
func NewCollectSink() *CollectSink { return &CollectSink{results: map[string]int{}} }

// Add records one result (use as the engine's OnResult callback).
func (s *CollectSink) Add(t *tuple.Tuple) {
	s.mu.Lock()
	s.results[CanonicalResult(t)]++
	s.mu.Unlock()
}

// Results returns a copy of the collected multiset.
func (s *CollectSink) Results() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.results))
	for k, v := range s.results {
		out[k] = v
	}
	return out
}

// Count returns the total number of collected results.
func (s *CollectSink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, v := range s.results {
		n += v
	}
	return n
}
