package runtime

import (
	"fmt"
	"sort"

	"clash/internal/query"
	"clash/internal/topology"
)

// StorePin is one store's pinned physical routing decision: parallelism,
// partitioning attribute, and the split-key set (heavy-hitter hashes
// spread over two candidate tasks). Pins are made at first sight during
// Install and never change for a store's lifetime — which makes them
// recovery state: a recovering engine whose caller optimized with
// different (e.g. degree-free) estimates would pin different choices and
// silently diverge from the crashed run's state layout. Checkpoints
// persist pins; RestorePins re-imposes them before replay.
type StorePin struct {
	Store topology.StoreID
	Par   int
	Part  query.Attr
	Split []uint64 // sorted split-key hashes; empty = plain hash routing
}

// Pins returns the engine's pinned layout for every store it has ever
// installed, sorted by store ID.
func (e *Engine) Pins() []StorePin {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]StorePin, 0, len(e.pinnedPar))
	for id, par := range e.pinnedPar {
		p := StorePin{Store: id, Par: par, Part: e.pinnedPart[id]}
		if split := e.pinnedSplit[id]; len(split) > 0 {
			p.Split = make([]uint64, 0, len(split))
			for h := range split {
				p.Split = append(p.Split, h)
			}
			sort.Slice(p.Split, func(i, j int) bool { return p.Split[i] < p.Split[j] })
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Store < out[j].Store })
	return out
}

// RestorePins overwrites the pin-at-first-sight choices with the ones a
// crashed run persisted, then recompiles every installed configuration
// (compiled emissions bake the split sets in). Pins for stores this
// engine has never installed are skipped — they belong to stores the
// recovering topology no longer has. A parallelism or partitioning
// mismatch for a known store means the engine was configured against a
// different physical layout than the one that wrote the state; that
// fails closed, before any pin changes.
func (e *Engine) RestorePins(pins []StorePin) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range pins {
		par, known := e.pinnedPar[p.Store]
		if !known {
			continue
		}
		if par != p.Par {
			return fmt.Errorf("runtime: restored pin for store %s has parallelism %d, engine pinned %d", p.Store, p.Par, par)
		}
		if part := e.pinnedPart[p.Store]; part != p.Part {
			return fmt.Errorf("runtime: restored pin for store %s partitions by %s, engine pinned %s", p.Store, p.Part.Qualified(), part.Qualified())
		}
	}
	changed := false
	for _, p := range pins {
		if _, known := e.pinnedPar[p.Store]; !known {
			continue
		}
		cur := e.pinnedSplit[p.Store]
		if len(p.Split) == 0 {
			if cur != nil {
				delete(e.pinnedSplit, p.Store)
				changed = true
			}
			continue
		}
		if !splitEqual(cur, p.Split) {
			set := make(map[uint64]struct{}, len(p.Split))
			for _, h := range p.Split {
				set[h] = struct{}{}
			}
			e.pinnedSplit[p.Store] = set
			changed = true
		}
	}
	if changed {
		for _, ec := range e.configs {
			ec.comp = e.compileTopo(ec.topo, nil)
		}
	}
	return nil
}

func splitEqual(set map[uint64]struct{}, keys []uint64) bool {
	if len(set) != len(keys) {
		return false
	}
	for _, h := range keys {
		if _, ok := set[h]; !ok {
			return false
		}
	}
	return true
}
