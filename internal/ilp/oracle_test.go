package ilp

import (
	"fmt"
	"math"
	"testing"
)

// From-scratch node evaluation: the four model rescans the search ran at
// every node before the evaluation state became incremental. They are
// the oracles the maintained state is checked against, node by node.

// scratchBox sums the box terms of every variable under the bounds.
func scratchBox(st *structure, lo, hi []float64) (lb int64) {
	for v := range lo {
		lb += st.boxTerm(v, lo[v], hi[v])
	}
	return lb
}

// scratchGroupBound is the group add-on computed by visiting every member
// of every group.
func scratchGroupBound(st *structure, lo, hi []float64) int64 {
	if !st.valid {
		return 0
	}
	total := int64(0)
	for g, members := range st.groups {
		decided := false
		best := int64(math.MaxInt64)
		for _, x := range members {
			if lo[x] > 0.5 {
				decided = true
				break
			}
			if hi[x] < 0.5 {
				continue // excluded candidate
			}
			add := int64(0)
			for _, y := range st.forces[x] {
				if st.exclusive[y] == g && lo[y] < 0.5 && st.obj[y] > 0 {
					add += st.qobj[y]
				}
			}
			if add < best {
				best = add
			}
		}
		if decided || best == math.MaxInt64 {
			continue
		}
		total += best
	}
	return total
}

// scratchImplications returns every variable some undecided group's
// available candidates all force and that is not at 1 yet, without
// fixing anything; ok is false when a group has no candidate left or an
// implied variable is already excluded.
func scratchImplications(s *searcher) (implied []int, ok bool) {
	if !s.st.valid {
		return nil, true
	}
	for _, members := range s.st.groups {
		decided := false
		var avail []int
		for _, x := range members {
			if s.lo[x] > 0.5 {
				decided = true
				break
			}
			if s.hi[x] > 0.5 {
				avail = append(avail, x)
			}
		}
		if decided {
			continue
		}
		if len(avail) == 0 {
			return nil, false
		}
		common := map[int]int{}
		for _, x := range avail {
			for _, y := range s.st.forces[x] {
				common[y]++
			}
		}
		for y, n := range common {
			if n == len(avail) && s.lo[y] < 0.5 {
				if s.hi[y] < 0.5 {
					return nil, false
				}
				implied = append(implied, y)
			}
		}
	}
	return implied, true
}

// scratchPick is pickBranchVar by scanning every group's members and,
// failing that, every variable.
func scratchPick(s *searcher) int {
	if s.st.valid {
		bestFree, bestVar, bestCost := math.MaxInt32, -1, math.Inf(1)
		for _, members := range s.st.groups {
			decided := false
			free := 0
			cand, candCost := -1, math.Inf(1)
			for _, x := range members {
				if s.lo[x] > 0.5 {
					decided = true
					break
				}
				if s.hi[x] > 0.5 {
					free++
					if ic := s.impliedCost(x); ic < candCost {
						cand, candCost = x, ic
					}
				}
			}
			if decided || cand < 0 {
				continue
			}
			if free < bestFree || (free == bestFree && candCost < bestCost) {
				bestFree, bestVar, bestCost = free, cand, candCost
			}
		}
		if bestVar >= 0 {
			return bestVar
		}
	} else if v := s.pickFromEqRows(); v >= 0 {
		return v
	}
	best, bo := -1, math.Inf(1)
	for i := range s.m.Vars {
		if s.hi[i]-s.lo[i] > tol {
			if ic := s.impliedCost(i); ic < bo {
				best, bo = i, ic
			}
		}
	}
	return best
}

// nodeChecker is the hook: at every point stepNode reports, the
// maintained state must equal what the rescans compute from the bounds
// alone. It keeps the first mismatch for the test to report.
type nodeChecker struct {
	visits int
	err    string
}

func (c *nodeChecker) report(t *testing.T, what string) {
	t.Helper()
	if c.err != "" {
		t.Fatalf("%s: %s", what, c.err)
	}
	if c.visits == 0 {
		t.Fatalf("%s: the hook never ran", what)
	}
}

func (c *nodeChecker) hook(s *searcher, at hookPoint, v int) {
	c.visits++
	if c.err == "" {
		c.err = checkNode(s, at, v)
	}
}

func checkNode(s *searcher, at hookPoint, v int) string {
	st := s.st
	switch at {
	case hookDeadEnd:
		if _, ok := scratchImplications(s); ok {
			return fmt.Sprintf("node %d: implications report a dead end, the rescan finds none", s.nodes)
		}
		return ""
	case hookImplied:
		if implied, ok := scratchImplications(s); !ok || len(implied) > 0 {
			return fmt.Sprintf("node %d: implications stopped short of the rescan's fixpoint (ok=%v, pending %v)", s.nodes, ok, implied)
		}
	case hookBounded:
		if want := scratchBox(st, s.lo, s.hi); s.box != want {
			return fmt.Sprintf("node %d: box bound %d, rescan %d", s.nodes, s.box, want)
		}
		if got, want := s.groupBound(), scratchGroupBound(st, s.lo, s.hi); got != want {
			return fmt.Sprintf("node %d: group bound %d, rescan %d", s.nodes, got, want)
		}
	case hookBranched:
		if want := scratchPick(s); v != want {
			return fmt.Sprintf("node %d: branch variable %d, rescan %d", s.nodes, v, want)
		}
	}
	// The counters behind "decided" and "available", and the free sets.
	open := 0
	for g, members := range st.groups {
		decided, avail := int32(0), int32(0)
		for _, x := range members {
			if s.lo[x] > 0.5 {
				decided++
			}
			if s.hi[x] > 0.5 {
				avail++
			}
		}
		if decided == 0 {
			open++
		}
		if s.decided[g] != decided || s.avail[g] != avail {
			return fmt.Sprintf("node %d group %d: decided %d avail %d, rescan %d %d", s.nodes, g, s.decided[g], s.avail[g], decided, avail)
		}
	}
	if s.open != open {
		return fmt.Sprintf("node %d: %d open groups, rescan %d", s.nodes, s.open, open)
	}
	for i := range s.lo {
		set, bit := s.freeForcing, i
		if r := st.rank[i]; r >= 0 {
			set, bit = s.freeFlat, int(r)
		}
		if got, want := set[bit>>6]>>(bit&63)&1 == 1, s.hi[i]-s.lo[i] > tol; got != want {
			return fmt.Sprintf("node %d var %d: free bit %v, bounds say %v", s.nodes, i, got, want)
		}
	}
	return ""
}
