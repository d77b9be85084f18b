// Package query defines the logical query model of CLASH: streamed
// relations, windowed multi-way equi-join queries, and the query-graph
// utilities (connectivity, joinability) that the optimizer builds on.
//
// The paper's notation R(a),S(a,b),T(b) is supported directly: relations
// listing their join attributes, with an equi-join predicate implied
// between every pair of relations that mention the same attribute name.
package query

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Attr is a qualified attribute: relation name plus attribute name.
type Attr struct {
	Rel  string
	Name string
}

// String renders the attribute as "R.a".
func (a Attr) String() string { return a.Rel + "." + a.Name }

// Qualified returns the qualified name used in tuple schemas.
func (a Attr) Qualified() string { return a.Rel + "." + a.Name }

// Compare orders attributes exactly as their strings "R.a" order, -1, 0
// or +1, without building them: a relation name that is a prefix of
// another, or bytes below '.', order as in the rendered form ("R-x.a"
// before "R.a" before "R1.a").
func (a Attr) Compare(b Attr) int {
	if a.Rel == b.Rel {
		return strings.Compare(a.Name, b.Name)
	}
	la, lb := len(a.Rel)+1+len(a.Name), len(b.Rel)+1+len(b.Name)
	for i := 0; i < la && i < lb; i++ {
		if ca, cb := a.byteAt(i), b.byteAt(i); ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	switch {
	case la < lb:
		return -1
	case la > lb:
		return 1
	}
	return 0
}

// byteAt is byte i of the attribute's rendered form.
func (a Attr) byteAt(i int) byte {
	switch {
	case i < len(a.Rel):
		return a.Rel[i]
	case i == len(a.Rel):
		return '.'
	}
	return a.Name[i-len(a.Rel)-1]
}

// Predicate is an equi-join predicate between two qualified attributes.
// Predicates are unordered; Normalize gives the canonical orientation.
type Predicate struct {
	Left  Attr
	Right Attr
}

// Normalize returns the predicate with its sides in lexicographic order,
// so that R.a=S.b and S.b=R.a compare equal.
func (p Predicate) Normalize() Predicate {
	if p.Right.Compare(p.Left) < 0 {
		return Predicate{Left: p.Right, Right: p.Left}
	}
	return p
}

// String renders the predicate as "R.a=S.b" (normalized).
func (p Predicate) String() string {
	n := p.Normalize()
	return n.Left.String() + "=" + n.Right.String()
}

// Side returns the predicate's attribute on the given relation and whether
// the relation participates.
func (p Predicate) Side(rel string) (Attr, bool) {
	if p.Left.Rel == rel {
		return p.Left, true
	}
	if p.Right.Rel == rel {
		return p.Right, true
	}
	return Attr{}, false
}

// Other returns the attribute opposite to the given relation.
func (p Predicate) Other(rel string) (Attr, bool) {
	if p.Left.Rel == rel {
		return p.Right, true
	}
	if p.Right.Rel == rel {
		return p.Left, true
	}
	return Attr{}, false
}

// Connects reports whether the predicate joins a relation in set a with a
// relation in set b (both sets are relation-name sets).
func (p Predicate) Connects(a, b map[string]bool) bool {
	return (a[p.Left.Rel] && b[p.Right.Rel]) || (a[p.Right.Rel] && b[p.Left.Rel])
}

// Relation describes one streamed input: its name, the attributes carried
// by its tuples (unqualified), and its window length — the maximal age
// difference for a stored tuple to join with a newly arriving one.
type Relation struct {
	Name   string
	Attrs  []string
	Window time.Duration
}

// Attr returns the qualified attribute rel.name.
func (r *Relation) Attr(name string) Attr { return Attr{Rel: r.Name, Name: name} }

// HasAttr reports whether the relation carries the (unqualified) attribute.
func (r *Relation) HasAttr(name string) bool {
	for _, a := range r.Attrs {
		if a == name {
			return true
		}
	}
	return false
}

// QualifiedAttrs returns the qualified names in declaration order.
func (r *Relation) QualifiedAttrs() []string {
	out := make([]string, len(r.Attrs))
	for i, a := range r.Attrs {
		out[i] = r.Name + "." + a
	}
	return out
}

// String renders the relation as "R(a, b)".
func (r *Relation) String() string {
	return r.Name + "(" + strings.Join(r.Attrs, ",") + ")"
}

// Query is a multi-way windowed equi-join over a set of streamed
// relations. Relations is ordered (presentation order); Preds holds the
// normalized equi-join predicates.
type Query struct {
	Name      string
	Relations []string
	Preds     []Predicate
}

// NewQuery builds a query, normalizing and deduplicating predicates and
// validating that every predicate touches only query relations.
func NewQuery(name string, relations []string, preds []Predicate) (*Query, error) {
	q := &Query{Name: name, Relations: append([]string(nil), relations...)}
	rset := q.RelationSet()
	seen := map[string]bool{}
	for _, p := range preds {
		n := p.Normalize()
		if !rset[n.Left.Rel] || !rset[n.Right.Rel] {
			return nil, fmt.Errorf("query %s: predicate %s references relation outside %v", name, n, relations)
		}
		if n.Left.Rel == n.Right.Rel {
			return nil, fmt.Errorf("query %s: self-join predicate %s not supported", name, n)
		}
		if !seen[n.String()] {
			seen[n.String()] = true
			q.Preds = append(q.Preds, n)
		}
	}
	sort.Slice(q.Preds, func(i, j int) bool { return q.Preds[i].String() < q.Preds[j].String() })
	return q, nil
}

// RelationSet returns the query's relations as a set.
func (q *Query) RelationSet() map[string]bool {
	s := make(map[string]bool, len(q.Relations))
	for _, r := range q.Relations {
		s[r] = true
	}
	return s
}

// Size returns the number of relations joined.
func (q *Query) Size() int { return len(q.Relations) }

// PredsBetween returns the predicates connecting set a to set b.
func (q *Query) PredsBetween(a, b map[string]bool) []Predicate {
	var out []Predicate
	for _, p := range q.Preds {
		if p.Connects(a, b) {
			out = append(out, p)
		}
	}
	return out
}

// Connected reports whether the given subset of the query's relations is
// connected under the query's join predicates. Singleton and empty sets
// are connected by convention.
func (q *Query) Connected(set map[string]bool) bool {
	if len(set) <= 1 {
		return true
	}
	adj := map[string][]string{}
	for _, p := range q.Preds {
		if set[p.Left.Rel] && set[p.Right.Rel] {
			adj[p.Left.Rel] = append(adj[p.Left.Rel], p.Right.Rel)
			adj[p.Right.Rel] = append(adj[p.Right.Rel], p.Left.Rel)
		}
	}
	var start string
	for r := range set {
		start = r
		break
	}
	seen := map[string]bool{start: true}
	frontier := []string{start}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				frontier = append(frontier, nb)
			}
		}
	}
	return len(seen) == len(set)
}

// Signature is a canonical identity for the query's join structure:
// sorted relations plus sorted predicates. Two queries with equal
// signatures compute the same join (used to deduplicate generated
// workloads, Sec. VII-C).
func (q *Query) Signature() string {
	rels := append([]string(nil), q.Relations...)
	sort.Strings(rels)
	ps := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		ps[i] = p.String()
	}
	sort.Strings(ps)
	return strings.Join(rels, ",") + "|" + strings.Join(ps, "&")
}

// String renders the query in the paper's style: "q1: R ⋈ S ⋈ T".
func (q *Query) String() string {
	return q.Name + ": " + strings.Join(q.Relations, " ⋈ ")
}

// Catalog maps relation names to their descriptions. It is the static
// schema knowledge shared by the optimizer and the runtime.
type Catalog struct {
	rels  map[string]*Relation
	order []string
}

// NewCatalog builds a catalog from relations. Duplicate names are an error.
func NewCatalog(rels ...*Relation) (*Catalog, error) {
	c := &Catalog{rels: make(map[string]*Relation, len(rels))}
	for _, r := range rels {
		if _, dup := c.rels[r.Name]; dup {
			return nil, fmt.Errorf("catalog: duplicate relation %q", r.Name)
		}
		c.rels[r.Name] = r
		c.order = append(c.order, r.Name)
	}
	return c, nil
}

// MustCatalog is NewCatalog for static initialization; it panics on error.
func MustCatalog(rels ...*Relation) *Catalog {
	c, err := NewCatalog(rels...)
	if err != nil {
		panic(err)
	}
	return c
}

// Relation returns the named relation, or nil if unknown.
func (c *Catalog) Relation(name string) *Relation { return c.rels[name] }

// Names returns the relation names in registration order.
func (c *Catalog) Names() []string { return c.order }

// Len returns the number of relations.
func (c *Catalog) Len() int { return len(c.order) }

// Validate checks that every relation and attribute referenced by the
// query exists in the catalog.
func (c *Catalog) Validate(q *Query) error {
	for _, rn := range q.Relations {
		if c.rels[rn] == nil {
			return fmt.Errorf("query %s: unknown relation %q", q.Name, rn)
		}
	}
	for _, p := range q.Preds {
		for _, a := range []Attr{p.Left, p.Right} {
			r := c.rels[a.Rel]
			if r == nil {
				return fmt.Errorf("query %s: predicate %s references unknown relation %q", q.Name, p, a.Rel)
			}
			if !r.HasAttr(a.Name) {
				return fmt.Errorf("query %s: relation %q has no attribute %q", q.Name, a.Rel, a.Name)
			}
		}
	}
	return nil
}

// Window returns the relation's window, or def when the relation is
// unknown or has no window configured.
func (c *Catalog) Window(rel string, def time.Duration) time.Duration {
	if r := c.rels[rel]; r != nil && r.Window > 0 {
		return r.Window
	}
	return def
}
