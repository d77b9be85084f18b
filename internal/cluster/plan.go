// Package cluster scales the engine out: N full engines (shards) behind
// a routing and admission front door, with state hash-partitioned by
// join key across shards — the paper's distributed operator placement
// taken one level up from task partitioning inside a single engine.
//
// Exactness rests on the sharding plan (this file). Join-attribute
// equivalence classes are computed over all queries' predicates; a
// relation is KEYED when every query it joins in agrees on one routing
// attribute whose value is equated — by that query's own predicates —
// to every other keyed relation's routing value in any result. Then all
// keyed constituents of a result carry the same routing value and land
// on the same shard, broadcast constituents are everywhere, so each
// result materializes on exactly one shard. Queries whose relations are
// all broadcast materialize on every shard instead; the plan assigns
// them an owning shard and the cluster forwards only the owner's copy.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"clash/internal/query"
)

// Placement is one relation's shard mapping.
type Placement struct {
	// Attr is the routing attribute; the zero Attr means broadcast.
	Attr query.Attr
	// Index is Attr's position in the relation's ingest values
	// (declaration order), -1 for broadcast relations.
	Index int
}

// Keyed reports whether the relation hash-routes (vs broadcasts).
func (p Placement) Keyed() bool { return p.Index >= 0 }

// Plan is the cluster sharding plan.
type Plan struct {
	Shards    int
	Relations map[string]Placement
	// OwnerOnly maps each fully-broadcast query to the one shard whose
	// copy of its (everywhere-identical) results the cluster forwards.
	OwnerOnly map[string]int
	// classOf maps each keyed relation to its equivalence-class root —
	// the router groups split keys per class.
	classOf map[string]string
	// queriesOf maps each class root to the names of queries keyed on
	// it, for the split-key driving-relation gate.
	queriesOf map[string][]*query.Query
}

// BuildPlan derives the sharding plan for a workload over n shards.
func BuildPlan(qs []*query.Query, cat *query.Catalog, n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: %d shards", n)
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("cluster: empty workload")
	}

	// Union-find over qualified attributes, across all predicates.
	parent := map[string]string{}
	var find func(string) string
	find = func(a string) string {
		p, ok := parent[a]
		if !ok {
			parent[a] = a
			return a
		}
		if p == a {
			return a
		}
		r := find(p)
		parent[a] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Smaller root wins: class roots are deterministic.
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, q := range qs {
		for _, p := range q.Preds {
			union(p.Left.Qualified(), p.Right.Qualified())
		}
	}

	// Per query: the eligible classes. A class C is eligible for q when
	// q's own predicates inside C connect ALL of q's relations — then
	// every relation's C-attribute equals the class value in any result
	// of q (equality propagates through the connecting predicates), so
	// routing by C co-locates all of a result's constituents.
	chosen := map[string]string{} // query name -> class root ("" = none)
	for _, q := range qs {
		var roots []string
		seen := map[string]bool{}
		for _, p := range q.Preds {
			if r := find(p.Left.Qualified()); !seen[r] {
				seen[r] = true
				roots = append(roots, r)
			}
		}
		sort.Strings(roots)
		for _, c := range roots {
			if classConnects(q, c, find) {
				chosen[q.Name] = c
				break
			}
		}
	}

	// Routing attribute per relation: inside its query's chosen class,
	// the smallest of the relation's predicate attributes. Conflicts
	// (two queries needing different attributes) or membership in a
	// query with no eligible class force broadcast.
	attrOf := map[string]query.Attr{}
	broadcast := map[string]bool{}
	for _, q := range qs {
		c := chosen[q.Name]
		if c == "" {
			for _, r := range q.Relations {
				broadcast[r] = true
			}
			continue
		}
		for _, r := range q.Relations {
			a := classAttrOf(q, r, c, find)
			if prev, ok := attrOf[r]; ok && prev != a {
				broadcast[r] = true
				continue
			}
			attrOf[r] = a
		}
	}

	plan := &Plan{
		Shards:    n,
		Relations: map[string]Placement{},
		OwnerOnly: map[string]int{},
		classOf:   map[string]string{},
		queriesOf: map[string][]*query.Query{},
	}
	for _, name := range cat.Names() {
		rel := cat.Relation(name)
		a, keyed := attrOf[name]
		if !keyed || broadcast[name] {
			plan.Relations[name] = Placement{Index: -1}
			continue
		}
		idx := -1
		for i, attr := range rel.Attrs {
			if attr == a.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("cluster: routing attribute %s not in relation %s", a.Qualified(), rel)
		}
		plan.Relations[name] = Placement{Attr: a, Index: idx}
		plan.classOf[name] = find(a.Qualified())
	}

	// A query with at least one keyed relation materializes on exactly
	// one shard; a fully-broadcast query materializes on all of them and
	// needs an owner filter.
	for _, q := range qs {
		keyed := false
		for _, r := range q.Relations {
			if plan.Relations[r].Keyed() {
				keyed = true
				c := plan.classOf[r]
				plan.queriesOf[c] = append(plan.queriesOf[c], q)
			}
		}
		if !keyed {
			plan.OwnerOnly[q.Name] = int(hashString(q.Name) % uint64(n))
		}
	}
	return plan, nil
}

// classConnects reports whether q's predicates whose attributes belong
// to class c (both sides do, by union) connect every relation of q.
func classConnects(q *query.Query, c string, find func(string) string) bool {
	rels := q.RelationSet()
	root := map[string]string{}
	for r := range rels {
		root[r] = r
	}
	var rfind func(string) string
	rfind = func(r string) string {
		if root[r] == r {
			return r
		}
		root[r] = rfind(root[r])
		return root[r]
	}
	touched := map[string]bool{}
	for _, p := range q.Preds {
		if find(p.Left.Qualified()) != c {
			continue
		}
		touched[p.Left.Rel] = true
		touched[p.Right.Rel] = true
		ra, rb := rfind(p.Left.Rel), rfind(p.Right.Rel)
		if ra != rb {
			root[ra] = rb
		}
	}
	if len(touched) != len(rels) {
		return false
	}
	first := ""
	for r := range rels {
		if first == "" {
			first = rfind(r)
		} else if rfind(r) != first {
			return false
		}
	}
	return true
}

// classAttrOf returns relation r's smallest predicate attribute inside
// class c within query q.
func classAttrOf(q *query.Query, r, c string, find func(string) string) query.Attr {
	best := query.Attr{}
	consider := func(a query.Attr) {
		if a.Rel != r || find(a.Qualified()) != c {
			return
		}
		if best == (query.Attr{}) || a.Qualified() < best.Qualified() {
			best = a
		}
	}
	for _, p := range q.Preds {
		consider(p.Left)
		consider(p.Right)
	}
	return best
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
