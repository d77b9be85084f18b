// Package mir enumerates materializable intermediate results (MIRs) and
// candidate probe orders (Algorithm 1 of the paper).
//
// An MIR is a connected subset of a query's relations together with the
// join predicates defined among them; cross products are excluded by
// construction. Base relations are size-1 MIRs. The full result of a
// query is not an MIR (it is emitted, never stored).
package mir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"clash/internal/query"
)

// MIR is a materializable intermediate result.
type MIR struct {
	Rels  []string          // sorted relation names
	Preds []query.Predicate // normalized predicates among Rels, sorted
	key   string
	sub   atomic.Pointer[query.Query] // Subquery's result, built on first use
}

// New builds an MIR over the given relations with the given predicates.
// Predicates are filtered to those fully inside the relation set.
func New(rels []string, preds []query.Predicate) *MIR {
	m := &MIR{Rels: append([]string(nil), rels...)}
	sort.Strings(m.Rels)
	set := m.RelSet()
	var ps []string // each kept predicate rendered once
	for _, p := range preds {
		n := p.Normalize()
		if !set[n.Left.Rel] || !set[n.Right.Rel] {
			continue
		}
		if s := n.String(); !slices.Contains(ps, s) {
			ps = append(ps, s)
			m.Preds = append(m.Preds, n)
		}
	}
	sort.Sort(byRendered{m.Preds, ps})
	m.key = strings.Join(m.Rels, "+") + "|" + strings.Join(ps, "&")
	return m
}

// byRendered sorts predicates by their rendered form, held beside them.
type byRendered struct {
	preds []query.Predicate
	strs  []string
}

func (b byRendered) Len() int           { return len(b.preds) }
func (b byRendered) Less(i, j int) bool { return b.strs[i] < b.strs[j] }
func (b byRendered) Swap(i, j int) {
	b.preds[i], b.preds[j] = b.preds[j], b.preds[i]
	b.strs[i], b.strs[j] = b.strs[j], b.strs[i]
}

// Key is the canonical identity of the MIR: equal keys denote the same
// store contents, so probe trees from different queries referencing the
// same key share one store.
func (m *MIR) Key() string { return m.key }

// Label is a short human-readable name, e.g. "RS" or "ST".
func (m *MIR) Label() string { return strings.Join(m.Rels, "") }

// RelSet returns the relation set.
func (m *MIR) RelSet() map[string]bool {
	s := make(map[string]bool, len(m.Rels))
	for _, r := range m.Rels {
		s[r] = true
	}
	return s
}

// Size returns the number of relations covered.
func (m *MIR) Size() int { return len(m.Rels) }

// IsBase reports whether the MIR is a single input relation.
func (m *MIR) IsBase() bool { return len(m.Rels) == 1 }

// Subquery returns the join query computing this MIR, used to generate
// the probe orders that feed its store. It is built once per MIR and
// shared: callers must not change it.
func (m *MIR) Subquery() *query.Query {
	if q := m.sub.Load(); q != nil {
		return q
	}
	q, err := query.NewQuery("q"+m.Label(), m.Rels, m.Preds)
	if err != nil {
		panic(fmt.Sprintf("mir: invalid subquery for %s: %v", m.key, err))
	}
	m.sub.CompareAndSwap(nil, q)
	return m.sub.Load()
}

// String renders the MIR for logs.
func (m *MIR) String() string { return m.Label() }

// Enumerate returns all MIRs induced by the queries: for each query, every
// connected subset of its relations of size 1..n-1 (n = query size),
// carrying the query's predicates within that subset. MIRs with equal keys
// are returned once. The result is sorted by (size, key) so base relations
// come first, deterministically.
//
// Worst case (clique queries) this is exponential in the query size
// (Sec. V-A); query sizes in streaming workloads are small (≤ ~6).
func Enumerate(queries []*query.Query) []*MIR {
	lists := make([][]*MIR, len(queries))
	for i, q := range queries {
		lists[i] = enumerateQuery(q)
	}
	return Merge(lists...)
}

// Merge returns the MIRs of the lists as Enumerate does: each key once,
// the first list's MIR where two lists hold one key, sorted by (size,
// key). Enumerate(qs) is Merge of Enumerate([]*query.Query{q}) over the
// queries q of qs, so per-query results can be cached and merged.
func Merge(lists ...[]*MIR) []*MIR {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]*MIR, 0, n)
	for _, l := range lists {
		out = append(out, l...)
	}
	slices.SortStableFunc(out, func(a, b *MIR) int {
		if c := a.Size() - b.Size(); c != 0 {
			return c
		}
		return strings.Compare(a.Key(), b.Key())
	})
	return slices.CompactFunc(out, func(a, b *MIR) bool { return a.Key() == b.Key() })
}

// enumerateQuery returns every connected proper subset of one query's
// relations as an MIR, each key once.
func enumerateQuery(q *query.Query) []*MIR {
	var out []*MIR
	seen := map[string]bool{}
	n := len(q.Relations)
	// Iterate over all non-empty proper subsets via bitmask; n is small.
	for mask := 1; mask < (1<<n)-1; mask++ {
		var rels []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				rels = append(rels, q.Relations[i])
			}
		}
		set := map[string]bool{}
		for _, r := range rels {
			set[r] = true
		}
		if !q.Connected(set) {
			continue
		}
		m := New(rels, q.Preds)
		if !seen[m.Key()] {
			seen[m.Key()] = true
			out = append(out, m)
		}
	}
	return out
}

// Fingerprint returns the canonical identity of a query's join shape:
// its relation set plus normalized predicate set. Queries with equal
// fingerprints induce identical MIRs and candidate orders.
func Fingerprint(q *query.Query) string {
	return New(q.Relations, q.Preds).Key()
}

// ProbeOrder is a candidate probe order: a sequence of MIR elements. The
// first element is the starting relation whose arriving tuples walk the
// remaining elements' stores, incrementally joining (Sec. IV).
type ProbeOrder struct {
	Query *query.Query // the (sub)query this order answers
	Elems []*MIR
}

// Start returns the starting element.
func (p *ProbeOrder) Start() *MIR { return p.Elems[0] }

// Len returns the number of elements.
func (p *ProbeOrder) Len() int { return len(p.Elems) }

// Key is a canonical identity of the undecorated probe order (the query's
// predicate structure plus the element sequence).
func (p *ProbeOrder) Key() string {
	parts := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		parts[i] = e.Key()
	}
	return strings.Join(parts, "->")
}

// String renders the order in the paper's ⟨R,S,T⟩ style.
func (p *ProbeOrder) String() string {
	parts := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		parts[i] = e.Label()
	}
	return "⟨" + strings.Join(parts, ",") + "⟩"
}

// PrefixRels returns the union of relations of the first j elements.
func (p *ProbeOrder) PrefixRels(j int) map[string]bool {
	u := map[string]bool{}
	for _, e := range p.Elems[:j] {
		for _, r := range e.Rels {
			u[r] = true
		}
	}
	return u
}

// Candidates implements Algorithm 1: for each starting relation of q it
// returns all probe orders over the available MIRs that answer q without
// ever forming a cross product. An MIR is usable inside q only when the
// predicates it materializes are exactly q's predicates within its
// relation set (otherwise its store holds a differently-joined result).
func Candidates(q *query.Query, mirs []*MIR) map[string][]*ProbeOrder {
	qset := q.RelationSet()
	// Usable extension MIRs: strict subsets of q with matching predicates.
	var usable []*MIR
next:
	for _, m := range mirs {
		if m.Size() >= len(q.Relations) {
			continue
		}
		for _, r := range m.Rels {
			if !qset[r] {
				continue next
			}
		}
		if New(m.Rels, q.Preds).Key() != m.Key() {
			continue // predicate mismatch: stores a different join
		}
		usable = append(usable, m)
	}
	out := map[string][]*ProbeOrder{}
	for _, start := range q.Relations {
		base := findBase(usable, start)
		if base == nil {
			// The starting relation itself is always materialized; if the
			// caller did not pass its base MIR, synthesize it.
			base = New([]string{start}, nil)
		}
		var orders []*ProbeOrder
		constructRec(q, usable, []*MIR{base}, &orders)
		out[start] = orders
	}
	return out
}

func findBase(mirs []*MIR, rel string) *MIR {
	for _, m := range mirs {
		if m.IsBase() && m.Rels[0] == rel {
			return m
		}
	}
	return nil
}

// constructRec is the recursive body of Algorithm 1.
func constructRec(q *query.Query, mirs []*MIR, head []*MIR, out *[]*ProbeOrder) {
	covered := map[string]bool{}
	for _, e := range head {
		for _, r := range e.Rels {
			covered[r] = true
		}
	}
	for _, r := range mirs {
		if overlaps(covered, r.RelSet()) {
			continue
		}
		if len(q.PredsBetween(covered, r.RelSet())) == 0 {
			continue // would form a cross product
		}
		newHead := append(append([]*MIR(nil), head...), r)
		if coversQuery(q, newHead) {
			*out = append(*out, &ProbeOrder{Query: q, Elems: newHead})
		} else {
			constructRec(q, mirs, newHead, out)
		}
	}
}

func overlaps(a, b map[string]bool) bool {
	for r := range b {
		if a[r] {
			return true
		}
	}
	return false
}

func coversQuery(q *query.Query, head []*MIR) bool {
	n := 0
	for _, e := range head {
		n += e.Size()
	}
	return n == len(q.Relations)
}

// PartitionCandidates returns the attributes by which the MIR's store may
// be partitioned: every attribute of the MIR that joins, in any query, a
// relation outside the MIR (Sec. V: attributes joining only inside are
// useless for routing probes into the store). The result is sorted.
func PartitionCandidates(m *MIR, queries []*query.Query) []query.Attr {
	inside := m.RelSet()
	seen := map[query.Attr]bool{}
	var out []query.Attr
	for _, q := range queries {
		// Only queries that contain the MIR's relations contribute.
		contains := true
		for _, r := range m.Rels {
			if !slices.Contains(q.Relations, r) {
				contains = false
				break
			}
		}
		if !contains {
			continue
		}
		for _, p := range q.Preds {
			for _, rel := range []string{p.Left.Rel, p.Right.Rel} {
				a, _ := p.Side(rel)
				o, _ := p.Other(rel)
				if inside[a.Rel] && !inside[o.Rel] && !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
		}
	}
	slices.SortFunc(out, query.Attr.Compare)
	return out
}
