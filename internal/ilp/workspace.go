package ilp

// Workspace is the memory a solve works in: the search's bounds, trail,
// propagation queues and per-group counters, the structure analyze
// recognizes, and the components a model splits into. A solve resets what
// it uses instead of allocating it, so a loop that solves models of about
// the same size again and again — a churn step — allocates per solve
// little more than what it returns.
//
// A workspace carries no answer from one solve to the next: every array
// is rewritten before it is read, so a solve on a reused workspace returns
// what it returns on a fresh one, bit for bit. Nothing a solve returns
// points into its workspace; the Solution and its Values are the
// caller's. The zero value is ready to use. A Workspace serves one solve
// at a time.
type Workspace struct {
	s  searcher
	st structure

	// components' union-find forest, root numbering and lists.
	parent []int
	root   []int32
	comps  lists[int]
	// split's sub-models and what they are carved from.
	compOf, local []int32
	consOf        lists[int]
	sub           []Model
	namers        []componentNamer
	vars          []Variable
	cons          []Constraint
	terms         []Term
	warm          []float64
}

// Solve minimizes m on w's memory; see Model.Solve, which is Solve on a
// fresh workspace.
func (w *Workspace) Solve(m *Model, opt *Options) *Solution {
	o := Options{}
	if opt != nil {
		o = *opt
	}
	o.fill()
	if comps := w.components(m); len(comps) > 1 {
		return w.solveByComponents(m, comps, o)
	}
	return w.solveOne(m, o)
}

// solveOne solves a single connected component.
func (w *Workspace) solveOne(m *Model, o Options) *Solution {
	s := &w.s
	s.reset(m, o, &w.st)
	sol := s.solve()
	// The workspace keeps no reference to the model, the options or the
	// incumbent, which the Solution hands to the caller.
	s.reset(nil, Options{}, &w.st)
	return sol
}

// components computes connected components of the variable-constraint
// graph; each is a list of variable indices. Variables without any
// constraint form singleton components.
func (w *Workspace) components(m *Model) [][]int {
	n := len(m.Vars)
	w.parent = resize(w.parent, n)
	parent := w.parent
	for i := range parent {
		parent[i] = i
	}
	for _, c := range m.Cons {
		if len(c.Terms) == 0 {
			continue
		}
		r0 := find(parent, c.Terms[0].Var)
		for _, t := range c.Terms[1:] {
			r := find(parent, t.Var)
			if r != r0 {
				parent[r] = r0
			}
		}
	}
	// Components in the order of their smallest variable, each listing
	// its variables ascending.
	w.root = resize(w.root, n)
	root := w.root
	for i := range root {
		root[i] = -1
	}
	nc := int32(0)
	for v := 0; v < n; v++ {
		if r := find(parent, v); root[r] < 0 {
			root[r] = nc
			nc++
		}
	}
	count := w.comps.begin(int(nc))
	for v := 0; v < n; v++ {
		count[root[find(parent, v)]]++
	}
	out := w.comps.carve()
	for v := 0; v < n; v++ {
		c := root[find(parent, v)]
		out[c] = append(out[c], v)
	}
	return out
}

// find returns x's root in the union-find forest, halving the path.
func find(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// solveByComponents solves each component independently, in index order,
// one after another on w, and stitches the solutions together.
func (w *Workspace) solveByComponents(m *Model, comps [][]int, o Options) *Solution {
	total := &Solution{Values: make([]float64, len(m.Vars))}
	subs := w.split(m, comps)
	for ci, vs := range comps {
		so := o
		so.WarmStart = w.sliceWarmStart(o.WarmStart, len(m.Vars), vs)
		res := w.solveOne(&subs[ci], so)
		total.Nodes += res.Nodes
		switch res.Status {
		case Infeasible:
			total.Status = res.Status
			total.Values = nil
			return total
		case Limit:
			total.Status = Limit
		}
		if res.Values == nil {
			total.Values = nil
			return total
		}
		// Sub-models number their variables in vs order, so
		// res.Values[i] is the value of vs[i].
		for i, v := range vs {
			total.Values[v] = res.Values[i]
		}
		total.Objective += res.Objective
	}
	return total
}

// split builds one sub-model per component. A sub-model
// numbers its variables in the component's order, and each constraint
// goes to the component of its first variable; a row without terms goes
// to the first component, whose root propagation proves the model
// infeasible when 0 violates it. Components list their variables
// ascending, so renumbering keeps a constraint's terms sorted and
// merged: they are copied into one slab shared by all sub-models, with
// no re-sort. A sub-model names what it holds by its parent's names.
func (w *Workspace) split(m *Model, comps [][]int) []Model {
	w.compOf = resize(w.compOf, len(m.Vars))
	w.local = resize(w.local, len(m.Vars))
	compOf, local := w.compOf, w.local
	for ci, vs := range comps {
		for i, v := range vs {
			compOf[v], local[v] = int32(ci), int32(i)
		}
	}
	compOfRow := func(con Constraint) int32 {
		if len(con.Terms) == 0 {
			return 0
		}
		return compOf[con.Terms[0].Var]
	}
	count := w.consOf.begin(len(comps))
	nterms := 0
	for _, con := range m.Cons {
		count[compOfRow(con)]++
		nterms += len(con.Terms)
	}
	consOf := w.consOf.carve()
	for c, con := range m.Cons {
		ci := compOfRow(con)
		consOf[ci] = append(consOf[ci], c)
	}
	w.vars = resize(w.vars, len(m.Vars))
	w.cons = resize(w.cons, len(m.Cons))
	w.terms = resize(w.terms, nterms)
	w.sub = resize(w.sub, len(comps))
	w.namers = resize(w.namers, len(comps))
	vars, cons, slab := w.vars, w.cons, w.terms
	for ci, vs := range comps {
		w.namers[ci] = componentNamer{parent: m, vars: vs, cons: consOf[ci]}
		sub := &w.sub[ci]
		*sub = Model{
			Vars:  vars[:len(vs):len(vs)],
			Cons:  cons[:len(consOf[ci]):len(consOf[ci])],
			namer: &w.namers[ci],
		}
		vars, cons = vars[len(vs):], cons[len(consOf[ci]):]
		for i, v := range vs {
			sub.Vars[i] = m.Vars[v]
		}
		for k, c := range consOf[ci] {
			con := m.Cons[c]
			n := len(con.Terms)
			terms := slab[:n:n]
			slab = slab[n:]
			for i, t := range con.Terms {
				terms[i] = Term{Var: int(local[t.Var]), Coeff: t.Coeff}
			}
			sub.Cons[k] = Constraint{Name: con.Name, Terms: normalize(terms), Rel: con.Rel, RHS: con.RHS}
		}
	}
	return w.sub
}

// componentNamer names a sub-model's variables and constraints by the
// parent model's.
type componentNamer struct {
	parent     *Model
	vars, cons []int // the parent's index of each sub-model variable and constraint
}

func (n *componentNamer) VarName(v int) string { return n.parent.VarName(n.vars[v]) }
func (n *componentNamer) ConName(c int) string { return n.parent.ConName(n.cons[c]) }

// sliceWarmStart projects a full-model warm start onto one component's
// variable order. Returns nil when the warm start does not cover the
// model.
func (w *Workspace) sliceWarmStart(ws []float64, n int, vs []int) []float64 {
	if len(ws) != n {
		return nil
	}
	w.warm = resize(w.warm, len(vs))
	for i, v := range vs {
		w.warm[i] = ws[v]
	}
	return w.warm
}

// lists is a family of per-index lists carved out of one array: a count
// pass sizes every list, a fill pass appends to it without allocating.
// The lists keep their [][]T shape; carving them again reuses the
// memory.
type lists[T any] struct {
	heads [][]T
	flat  []T
	count []int32
}

// begin starts a count pass over n lists: it returns the zeroed counts,
// one per list, for the caller to raise to each list's length.
func (l *lists[T]) begin(n int) []int32 {
	l.count = resize(l.count, n)
	clear(l.count)
	return l.count
}

// carve returns the lists, empty, each with room for exactly its count.
func (l *lists[T]) carve() [][]T {
	total := 0
	for _, c := range l.count {
		total += int(c)
	}
	l.flat = resize(l.flat, total)
	l.heads = resize(l.heads, len(l.count))
	off := 0
	for i, c := range l.count {
		end := off + int(c)
		l.heads[i] = l.flat[off:off:end]
		off = end
	}
	return l.heads
}

// resize returns s with length n, reusing its array when it has room. The
// contents are whatever the array held: the caller writes every element
// it reads.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
