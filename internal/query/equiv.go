package query

// AttrClasses computes the equivalence classes of qualified attributes
// induced by a set of equi-join predicates (transitive closure of
// equality). Attributes in the same class carry equal values in any join
// result, so a tuple that contains one attribute of a class can be routed
// by any other attribute of the same class. Returns a map from attribute
// to a canonical class representative.
func AttrClasses(preds []Predicate) map[Attr]Attr {
	parent := map[Attr]Attr{}
	var find func(a Attr) Attr
	find = func(a Attr) Attr {
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
	union := func(a, b Attr) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Deterministic canonical pick: smaller string wins.
			if rb.Compare(ra) < 0 {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, p := range preds {
		union(p.Left, p.Right)
	}
	out := make(map[Attr]Attr, len(parent))
	for a := range parent {
		out[a] = find(a)
	}
	return out
}

// SameClass reports whether two attributes are value-equivalent under the
// classes computed by AttrClasses.
func SameClass(classes map[Attr]Attr, a, b Attr) bool {
	ca, oka := classes[a]
	cb, okb := classes[b]
	if !oka || !okb {
		return a == b
	}
	return ca == cb
}
