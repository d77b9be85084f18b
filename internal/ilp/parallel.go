package ilp

// Deterministic parallel branch-and-bound for a single connected
// component.
//
// The serial searcher expands a frontier of independent subtree roots
// near the top of the tree, then waves of up to Options.Parallel
// sub-searchers explore those subtrees concurrently. Determinism comes
// from two rules: every sub-searcher in a wave starts from the same
// wave-start incumbent (improvements found by a sibling are NOT shared
// mid-wave), and wave results — incumbent offers and node counts — are
// merged in frontier-index order. The explored tree is therefore a pure
// function of (model, options, warm start) whenever TimeLimit is 0;
// wall-clock deadlines remain scheduling-sensitive by nature.

type pnode struct {
	fixes []trailEntry // (var, value) fixes from the root, in order
	depth int
}

// solveParallel runs the wave-parallel search. Models that close during
// frontier expansion (or leave a single open subtree) complete on the
// serial machinery and return the equivalent serial result.
func (root *searcher) solveParallel() *Solution {
	o := root.o
	if early := root.init(); early != nil {
		return early
	}

	target := o.Parallel * 4
	maxDepth := 1
	for 1<<maxDepth < target && maxDepth < 12 {
		maxDepth++
	}

	frontier := root.expandFrontier(target, maxDepth)
	if root.hitLim || len(frontier) == 0 {
		return root.finish()
	}
	if len(frontier) == 1 {
		// Nothing to parallelize: continue serially from the root.
		root.replayAndSearch(frontier[0])
		return root.finish()
	}

	for start := 0; start < len(frontier) && !root.hitLim; start += o.Parallel {
		end := start + o.Parallel
		if end > len(frontier) {
			end = len(frontier)
		}
		wave := frontier[start:end]
		children := make([]*searcher, len(wave))
		done := make(chan struct{}, len(wave))
		budget := o.MaxNodes - root.nodes
		if budget <= 0 {
			root.hitLim = true
			break
		}
		for i, pn := range wave {
			c := root.child(budget)
			children[i] = c
			go func(c *searcher, pn pnode) {
				defer func() { done <- struct{}{} }()
				c.replayAndSearch(pn)
			}(c, pn)
		}
		for range wave {
			<-done
		}
		// Merge in frontier-index order: node accounting first (so the
		// budget consumed is order-independent), then incumbent offers
		// (ties resolve to the lowest index).
		for _, c := range children {
			root.nodes += c.nodes
			root.lpIters += c.lpIters
			if c.hitLim {
				root.hitLim = true
			}
			if c.timedOut {
				root.timedOut = true
			}
		}
		for _, c := range children {
			if c.best != nil {
				root.offer(c.best, c.bestObj)
			}
		}
		if root.nodes > o.MaxNodes {
			root.hitLim = true
		}
	}
	return root.finish()
}

// expandFrontier explores the top of the tree serially (sharing all the
// serial machinery, including incumbents found along the way) and
// collects the open subtree roots at depth maxDepth, or every remaining
// sibling once target roots exist. Bounds are restored to the
// post-root-propagation state on return.
func (s *searcher) expandFrontier(target, maxDepth int) []pnode {
	var open []pnode
	var walk func(branched int, fixes []trailEntry)
	walk = func(branched int, fixes []trailEntry) {
		if s.hitLim {
			return
		}
		if len(fixes) > 0 && (len(open) >= target || len(fixes) >= maxDepth) {
			cp := make([]trailEntry, len(fixes))
			copy(cp, fixes)
			open = append(open, pnode{fixes: cp, depth: len(fixes)})
			return
		}
		if !s.countNode() {
			return
		}
		mark := len(s.trail)
		defer s.undo(mark)
		bv, first, ok := s.stepNode(branched)
		if !ok {
			return
		}
		for _, val := range []float64{first, 1 - first} {
			m2 := len(s.trail)
			s.fix(bv, val)
			s.depth++
			walk(bv, append(fixes, trailEntry{v: bv, lo: val}))
			s.depth--
			s.undo(m2)
			if s.hitLim {
				return
			}
		}
	}
	walk(-1, nil)
	return open
}

// child clones the searcher for an independent subtree: shared read-only
// model, structure, and adjacency; private bounds, node evaluation state,
// trail, and incumbent seeded from the parent's current best.
func (s *searcher) child(maxNodes int) *searcher {
	c := &searcher{m: s.m, o: s.o, st: s.st, varCons: s.varCons, useLP: s.useLP, deadln: s.deadln, hook: s.hook}
	c.o.MaxNodes = maxNodes
	c.o.Parallel = 0
	c.lo = append([]float64(nil), s.lo...)
	c.hi = append([]float64(nil), s.hi...)
	c.box, c.boxInf, c.open = s.box, s.boxInf, s.open
	c.decided = append([]int32(nil), s.decided...)
	c.avail = append([]int32(nil), s.avail...)
	c.exclTerm = append([]int64(nil), s.exclTerm...)
	c.pickVar = append([]int32(nil), s.pickVar...)
	c.pickCost = append([]float64(nil), s.pickCost...)
	c.dirty = append([]uint8(nil), s.dirty...)
	c.freeFlat = append([]uint64(nil), s.freeFlat...)
	c.freeForcing = append([]uint64(nil), s.freeForcing...)
	c.cutoff, c.tolQ = s.cutoff, s.tolQ
	c.bestObj = s.bestObj
	if s.best != nil {
		c.best = append([]float64(nil), s.best...)
	}
	c.newBuffers()
	return c
}

// replayAndSearch applies a frontier node's fixes (propagating after
// each, as the serial search would have) and explores the subtree.
func (s *searcher) replayAndSearch(pn pnode) {
	for _, f := range pn.fixes[:len(pn.fixes)-1] {
		s.fix(f.v, f.lo)
		if !s.propagate(f.v) {
			return
		}
	}
	last := pn.fixes[len(pn.fixes)-1]
	s.fix(last.v, last.lo)
	s.depth = pn.depth
	s.dfs(last.v)
}
