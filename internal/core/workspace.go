package core

import (
	"clash/internal/ilp"
	"clash/internal/query"
)

// workspace is the memory one joint solve builds its model in, prices its
// candidates in, warm-starts and searches in: the solver's workspace, the
// model's rows, priced's copies of the candidate structure, the builder's
// per-solve arrays and the warm start's scratch. A Reopt keeps one and
// lends it to one solve at a time (acquire, release); every other solve
// runs on a fresh one. A solve resets what it uses instead of allocating
// it.
//
// Nothing a solve returns points into its workspace: extract copies the
// selected orders out, and the solver's Solution is the caller's. So a
// Plan stays what it was when the next solve overwrites the workspace.
type workspace struct {
	solver ilp.Workspace
	model  ilp.Model

	// The ILP's variables. Orders are numbered by their position in
	// orders (DecoratedOrder.num); steps, decorations and orders' keys by
	// their symbols. -1 marks a symbol this solve has no variable for.
	orders  []*DecoratedOrder
	xVar    []int32 // order number -> x
	yVar    []int32 // step id -> y
	zVar    []int32 // decoration id -> z
	orderOf []int32 // order id -> order number
	nStores int     // store ids below it are this solve's
	zs      []zDecor
	cons    []conRef // what each constraint is, for its name

	// The candidate groups in the builder's stable order: top-level ones
	// by query, then start; feeding ones by MIR key, with feedOf mapping a
	// store id to its feeding group.
	tops   []topGroup
	feeds  []feedGroup
	feedOf []int32

	// priced's copies of the cached structure, the orders' step variables
	// and the id-indexed arrays.
	copies slab[DecoratedOrder]
	steps  slab[Step]
	lists  slab[*DecoratedOrder]
	ids    slab[int32]

	// The warm start's selection scratch and one assignment per variant.
	ls   lsState
	warm [numSeeds][]float64

	// The structure keys' scratch (structSig): the queries joining each
	// relation (a relation no query joins any more keeps an empty
	// list), the key being written, and its sorted lists.
	byRel map[string][]*query.Query
	key   []byte
	rels  []string
	adj   []int
	sides []keySide
	attrs []query.Attr
	preds []query.Predicate
}

// reset readies w for a new solve.
func (w *workspace) reset() {
	w.model.Reset()
	w.orders, w.xVar, w.zs, w.cons = w.orders[:0], w.xVar[:0], w.zs[:0], w.cons[:0]
	w.tops = w.tops[:0]
	w.copies.reset()
	w.steps.reset()
	w.lists.reset()
	w.ids.reset()
}

// filled returns n copies of -1 from w: an id-indexed array with nothing
// assigned yet.
func (w *workspace) filled(n int) []int32 {
	out := w.ids.take(n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// warmVector returns the zeroed assignment a warm-start variant writes.
func (w *workspace) warmVector(seed warmSeed) []float64 {
	w.warm[seed] = resize(w.warm[seed], w.model.NumVars())
	clear(w.warm[seed])
	return w.warm[seed]
}

// acquire lends r's workspace to a solve. A solve that finds it lent out
// gets a fresh one.
func (r *Reopt) acquire() *workspace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wsBusy {
		return new(workspace)
	}
	if r.ws == nil {
		r.ws = new(workspace)
	}
	r.wsBusy = true
	return r.ws
}

// release ends a solve's loan of w.
func (r *Reopt) release(w *workspace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w == r.ws {
		r.wsBusy = false
	}
}

// slab hands out slices carved from one array; reset makes the whole array
// available again. A slab that ran out during a solve starts the next one
// with room for everything that solve took. What take returns holds
// whatever the array held: the caller writes every element.
type slab[T any] struct {
	buf  []T
	used int // taken since the last reset
}

func (s *slab[T]) take(n int) []T {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(n, 2*cap(s.buf), 64))
	}
	start := len(s.buf)
	s.buf = s.buf[:start+n]
	s.used += n
	return s.buf[start : start+n : start+n]
}

func (s *slab[T]) reset() {
	if s.used > cap(s.buf) {
		s.buf = make([]T, 0, s.used)
	}
	s.buf, s.used = s.buf[:0], 0
}

// resize returns s with length n, reusing its array when it has room; the
// contents are whatever the array held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
