package core

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/topology"
)

// nodePaths renders the path of every probe-tree node a compile made —
// namespace, "root:", relation, then "|" and each step key from the root —
// and maps it to the node's incoming edge.
func nodePaths(c *compiler) map[string]topology.EdgeID {
	rootOf := map[*treeNode]string{}
	for k, r := range c.roots {
		rootOf[r] = k[0] + "root:" + k[1]
	}
	parentOf := map[*treeNode]nodeKey{}
	for k, n := range c.nodes {
		parentOf[n] = k
	}
	var path func(n *treeNode) string
	path = func(n *treeNode) string {
		if p, ok := rootOf[n]; ok {
			return p
		}
		k := parentOf[n]
		return path(k.parent) + "|" + k.step
	}
	out := map[string]topology.EdgeID{}
	for _, n := range c.nodes {
		out[path(n)] = n.inEdge
	}
	return out
}

// TestEdgesNamedByPath compiles the plans of a churn schedule on the
// query-churn shape, step after step. Within one compile every node has
// an edge of its own, named by the FNV-1a hash of its path in 11
// characters; across compiles a path that is still there keeps its edge,
// and compiling the same plans twice gives the same topology.
func TestEdgesNamedByPath(t *testing.T) {
	sched := controllerSchedule(t, 12, 1, 6)
	reopt := NewReopt()
	var prev map[string]topology.EdgeID
	kept, paths := 0, 0
	for s, step := range sched {
		reopt.Advance()
		plan, err := NewOptimizer(controllerOptions(reopt)).Optimize(step.queries, step.est)
		if err != nil {
			t.Fatal(err)
		}
		c := newCompiler(CompileOptions{Shared: true})
		if err := c.compile([]*Plan{plan}); err != nil {
			t.Fatal(err)
		}
		again, err := Compile([]*Plan{plan}, CompileOptions{Shared: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.cfg, again) {
			t.Fatalf("step %d: compiling one plan twice gave two topologies", s)
		}
		cur := nodePaths(c)
		byEdge := map[topology.EdgeID]string{}
		for path, e := range cur {
			if other, dup := byEdge[e]; dup {
				t.Fatalf("step %d: paths %q and %q share edge %s", s, path, other, e)
			}
			byEdge[e] = path
			if want := c2edge(fnvAdd(fnvOffset, path)); e != want {
				t.Errorf("step %d: path %q has edge %s, its hash renders %s", s, path, e, want)
			}
			if old, ok := prev[path]; ok {
				if old != e {
					t.Fatalf("step %d: path %q moved from edge %s to %s", s, path, old, e)
				}
				kept++
			}
		}
		paths += len(cur)
		prev = cur
	}
	t.Logf("%d of %d paths were there the step before", kept, paths)
	if kept == 0 {
		t.Error("no path survived a churn step")
	}
}

// c2edge renders a path hash as pathEdge names it on a fresh compiler.
func c2edge(h uint64) topology.EdgeID {
	return newCompiler(CompileOptions{}).pathEdge(h)
}

// TestPathEdgeCollisions: two paths whose hashes collide in one compile
// get two edges, the later one re-hashed, and the same ones every time.
func TestPathEdgeCollisions(t *testing.T) {
	c := newCompiler(CompileOptions{})
	first, second := c.pathEdge(42), c.pathEdge(42)
	if first == second {
		t.Fatalf("colliding paths share edge %s", first)
	}
	if len(first) != 11 || len(second) != 11 {
		t.Errorf("edges %q and %q are not 11 characters", first, second)
	}
	d := newCompiler(CompileOptions{})
	if a, b := d.pathEdge(42), d.pathEdge(42); a != first || b != second {
		t.Errorf("a second compile named the colliding paths %s, %s; the first %s, %s", a, b, first, second)
	}
}

// randomPreds draws n equality predicates over a few attributes of a few
// relations, self-equalities and repeats included.
func randomPreds(r *rng.RNG, n int) []query.Predicate {
	attr := func() query.Attr {
		return query.Attr{Rel: []string{"R", "S", "T", "R1"}[r.Intn(4)], Name: []string{"a", "b", "c"}[r.Intn(3)]}
	}
	out := make([]query.Predicate, n)
	for i := range out {
		out[i] = query.Predicate{Left: attr(), Right: attr()}
	}
	return out
}

// attrClasses computes the equivalence classes of qualified attributes
// induced by equi-join predicates (the transitive closure of equality)
// by union-find: it maps each attribute a predicate names to its class's
// smallest member.
func attrClasses(preds []query.Predicate) map[query.Attr]query.Attr {
	parent := map[query.Attr]query.Attr{}
	var find func(a query.Attr) query.Attr
	find = func(a query.Attr) query.Attr {
		p, ok := parent[a]
		if !ok {
			parent[a] = a
			return a
		}
		if p == a {
			return a
		}
		root := find(p)
		parent[a] = root
		return root
	}
	for _, p := range preds {
		ra, rb := find(p.Left), find(p.Right)
		if ra != rb {
			if rb.Compare(ra) < 0 {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	out := make(map[query.Attr]query.Attr, len(parent))
	for a := range parent {
		out[a] = find(a)
	}
	return out
}

// sameClass reports whether two attributes are value-equivalent under
// attrClasses' classes; an attribute no predicate names is alone in its
// class.
func sameClass(classes map[query.Attr]query.Attr, a, b query.Attr) bool {
	ca, oka := classes[a]
	cb, okb := classes[b]
	if !oka || !okb {
		return a == b
	}
	return ca == cb
}

// TestLinkedMatchesAttrClasses holds the routing check the compiler runs
// without building maps against union-find classes (attrClasses).
func TestLinkedMatchesAttrClasses(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		a, b := randomPreds(r, r.Intn(4)), randomPreds(r, r.Intn(3))
		classes := attrClasses(append(slices.Clone(a), b...))
		x, y := randomPreds(r, 1)[0].Left, randomPreds(r, 1)[0].Right
		if got, want := linked(a, b, x, y), sameClass(classes, x, y); got != want {
			t.Fatalf("linked(%v, %v, %v, %v) = %v, AttrClasses says %v", a, b, x, y, got, want)
		}
	}
}

// TestSamePredsMatchesRendered holds samePreds against the comparison of
// the predicates' sorted renderings.
func TestSamePredsMatchesRendered(t *testing.T) {
	rendered := func(ps []query.Predicate) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.String()
		}
		sort.Strings(out)
		return out
	}
	r := rng.New(9)
	same := 0
	for i := 0; i < 5000; i++ {
		a := randomPreds(r, r.Intn(4))
		b := slices.Clone(a)
		switch r.Intn(3) {
		case 0: // a permutation, sides flipped at random
			for j := range b {
				k := r.Intn(j + 1)
				b[j], b[k] = b[k], b[j]
			}
			for j := range b {
				if r.Intn(2) == 0 {
					b[j].Left, b[j].Right = b[j].Right, b[j].Left
				}
			}
		case 1:
			b = randomPreds(r, len(a))
		}
		want := slices.Equal(rendered(a), rendered(b))
		if got := samePreds(a, b); got != want {
			t.Fatalf("samePreds(%v, %v) = %v, renderings say %v", a, b, got, want)
		}
		if want {
			same++
		}
	}
	if same == 0 || same == 5000 {
		t.Fatalf("%d of 5000 pairs equal: the draw must give both verdicts", same)
	}
}
