package runtime

import (
	"slices"
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
// complete input history with nested loops, using the engine's
// operational semantics: a result exists for every combination of one
// tuple per query relation such that all predicates hold and, with m the
// latest-arriving member, every other member u arrived before m and
// satisfies m.TS - u.TS ≤ window(rel(u)). The returned multiset uses the
// same canonical encoding as CanonicalResult, so engine output can be
// compared directly regardless of the probe orders chosen.
//
// The loops bind the relations in a connected order — each next relation
// shares a predicate with one already bound, where the query allows it —
// and test every predicate as soon as both of its sides are bound, so the
// partial bindings stay bounded by the join's degrees rather than by the
// product of the relation sizes.
func ReferenceJoin(q *query.Query, cat *query.Catalog, defWindow tuple.Duration, inputs []Ingestion) map[string]int {
	type member struct {
		rel   string
		ts    tuple.Time
		seq   uint64
		vals  map[string]tuple.Value
		parts []string // the canonical "attr=value" pairs of vals
	}
	inQuery := q.RelationSet()
	byRel := map[string][]*member{}
	for i, in := range inputs {
		r := cat.Relation(in.Rel)
		if r == nil || !inQuery[in.Rel] {
			continue
		}
		vals := map[string]tuple.Value{}
		for j, a := range r.Attrs {
			vals[in.Rel+"."+a] = in.Vals[j]
		}
		vals[in.Rel+"."+tuple.EventTime] = tuple.IntValue(int64(in.TS))
		m := &member{rel: in.Rel, ts: in.TS, seq: uint64(i + 1), vals: vals}
		for k, v := range vals {
			m.parts = append(m.parts, k+"="+v.String())
		}
		byRel[in.Rel] = append(byRel[in.Rel], m)
	}

	// A predicate side reads the member at the last position of its
	// relation in q.Relations, as the Cartesian definition does when a
	// relation is listed twice.
	owner := map[string]int{}
	for i, rel := range q.Relations {
		owner[rel] = i
	}
	type check struct {
		left, right       int // positions in q.Relations
		leftKey, rightKey string
	}
	adj := make([][]int, len(q.Relations))
	for _, p := range q.Preds {
		l, r := owner[p.Left.Rel], owner[p.Right.Rel]
		adj[l] = append(adj[l], r)
		adj[r] = append(adj[r], l)
	}

	// The binding order: the first unbound relation adjacent to a bound
	// one, or the first unbound relation when none is (a cross product).
	order := make([]int, 0, len(q.Relations))
	level := make([]int, len(q.Relations)) // position → its level in order
	bound := make([]bool, len(q.Relations))
	for len(order) < len(q.Relations) {
		next := -1
		for i := range q.Relations {
			if bound[i] {
				continue
			}
			if next < 0 {
				next = i
			}
			if slices.ContainsFunc(adj[i], func(j int) bool { return bound[j] }) {
				next = i
				break
			}
		}
		level[next], bound[next] = len(order), true
		order = append(order, next)
	}
	checks := make([][]check, len(order)) // level → predicates bound there
	for _, p := range q.Preds {
		c := check{owner[p.Left.Rel], owner[p.Right.Rel], p.Left.Qualified(), p.Right.Qualified()}
		at := max(level[c.left], level[c.right])
		checks[at] = append(checks[at], c)
	}

	out := map[string]int{}
	chosen := make([]*member, len(q.Relations)) // by position in q.Relations
	var parts []string
	var rec func(lv int)
	rec = func(lv int) {
		if lv == len(order) {
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
			parts = parts[:0]
			for _, m := range chosen {
				parts = append(parts, m.parts...)
			}
			sort.Strings(parts)
			out[strings.Join(parts, "|")]++
			return
		}
		pos := order[lv]
	next:
		for _, m := range byRel[q.Relations[pos]] {
			chosen[pos] = m
			for _, c := range checks[lv] {
				l, okL := chosen[c.left].vals[c.leftKey]
				r, okR := chosen[c.right].vals[c.rightKey]
				if !okL || !okR || l != r {
					continue next
				}
			}
			rec(lv + 1)
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
