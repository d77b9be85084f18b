package cluster

import (
	"sort"

	"clash/internal/runtime"
	"clash/internal/stats"
)

// Router is the front door's one routing rule — the engine's split-key
// routing one level up. Broadcast relations go to every shard; keyed
// relations hash to one shard, except a heavy hitter whose estimated
// share reaches a full mean shard (share >= 1/N), which is spread over
// the key's two candidate shards instead of pinned to one. Hot keys are
// per equivalence class: a value hot in one class hashes plainly in
// every other. The class's driving relation's hot tuples go to the
// less-loaded candidate; every other keyed relation of the class
// replicates its hot tuples to BOTH candidates, so each driving tuple
// finds all its partners on its own shard. This is exact only when the
// driving relation appears in every query keyed on the class — a result
// then contains exactly one driving tuple and materializes exactly where
// that tuple lives; NewRouter enforces the gate and falls back to plain
// hashing per class otherwise. Without estimates, or with no key that
// hot, the router is plain key hash.
//
// Routing is a deterministic function of the tuple and the router's
// placement counts (no wall clock, no randomness): cluster runs on the
// simulation substrate replay byte-identically.
type Router struct {
	shards int
	split  map[string]*classSplit // keyed relation -> its class's hot keys
	splits int                    // hot hashes over all classes
}

// classSplit is one equivalence class's hot keys and driving relation.
type classSplit struct {
	hot     map[uint64]bool
	driving string
}

// NewRouter derives the split tables from the plan and the degree
// sketches in est (nil est: plain key hash).
func NewRouter(plan *Plan, est *stats.Estimates) *Router {
	r := &Router{shards: plan.Shards, split: map[string]*classSplit{}}
	if est == nil || plan.Shards < 2 {
		return r
	}
	threshold := 1.0 / float64(plan.Shards)
	hot := map[string]map[uint64]bool{} // class -> hot hashes
	for rel, pl := range plan.Relations {
		if !pl.Keyed() {
			continue
		}
		d := est.Degree(pl.Attr.Qualified())
		if d == nil {
			continue
		}
		c := plan.classOf[rel]
		for i, h := range d.Top {
			if d.KeyShare(i) < threshold {
				continue
			}
			if hot[c] == nil {
				hot[c] = map[uint64]bool{}
			}
			hot[c][h.Hash] = true
		}
	}
	for c, hashes := range hot {
		drv := drivingRelation(plan, c)
		if drv == "" {
			continue // no relation spans every query of the class: plain hash
		}
		cs := &classSplit{hot: hashes, driving: drv}
		for rel, cls := range plan.classOf {
			if cls == c {
				r.split[rel] = cs
			}
		}
		r.splits += len(hashes)
	}
	return r
}

// drivingRelation picks the smallest-named keyed relation of the class
// present in every query keyed on the class, or "".
func drivingRelation(plan *Plan, c string) string {
	var cands []string
	for rel, cls := range plan.classOf {
		if cls == c {
			cands = append(cands, rel)
		}
	}
	sort.Strings(cands)
	for _, rel := range cands {
		everywhere := true
		for _, q := range plan.queriesOf[c] {
			if !q.RelationSet()[rel] {
				everywhere = false
				break
			}
		}
		if everywhere {
			return rel
		}
	}
	return ""
}

// Splits reports how many hot hashes the router spreads (for tests and
// metrics vacuity checks).
func (r *Router) Splits() int { return r.splits }

// Keyed places a tuple of keyed relation rel whose routing value hashes
// to h: on one shard, and for a partner relation's hot key also on the
// second candidate, alt (-1: none). routed holds each shard's placements
// so far; a driving relation's hot tuple goes to the candidate with
// fewer.
func (r *Router) Keyed(rel string, h uint64, routed []int64) (shard, alt int) {
	cs := r.split[rel]
	if cs == nil || !cs.hot[h] {
		return int(h % uint64(r.shards)), -1
	}
	p1, p2 := runtime.SplitCandidates(h, r.shards)
	if rel != cs.driving {
		// Partner relation: the hot key's tuples must be visible on both
		// candidates for either placement of the driving tuple to join.
		return p1, p2
	}
	if routed[p2] < routed[p1] {
		return p2, -1
	}
	return p1, -1
}
