package runtime

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"slices"

	"clash/internal/query"
	"clash/internal/topology"
)

// store is the record of a store that an installed configuration names:
// its pin — parallelism, partitioning attribute, split-key set — and its
// tasks. The first Install naming the store creates it, the Install
// after which no installed configuration names the store deletes it, and
// the pin holds in between: routing must stay consistent while the store
// holds state (DESIGN.md §4). Only RestorePins replaces the split set,
// before any state loads. Compiled emissions point at their target's
// record, so routing reads the pin through it. Written under e.mu.
type store struct {
	id    topology.StoreID
	born  uint64 // the record's creation number on this engine (StorePin.Born)
	par   int
	part  query.Attr
	split map[uint64]struct{} // nil: plain hash routing
	tasks []*task             // by partition
}

// StorePin is one store's pinned physical routing decision, and recovery
// state: a recovering engine optimized with different (e.g. degree-free)
// estimates would pin different split keys and diverge from the crashed
// run's state layout, so checkpoints persist pins and RestorePins
// re-imposes them before replay.
type StorePin struct {
	Store topology.StoreID
	Par   int
	Part  query.Attr
	Split []uint64 // sorted split-key hashes; empty = plain hash routing
	// Born numbers the store's record among those this engine created
	// (from 1): a store retired and introduced again is born anew, empty.
	// Not persisted (a decoded pin reads 0) and ignored by RestorePins.
	Born uint64
}

// addStore creates the record of a store the installing configuration
// introduces, with its tasks. Caller holds e.mu (write).
func (e *Engine) addStore(id topology.StoreID, s *topology.Store) {
	e.births++
	st := &store{id: id, born: e.births, par: max(s.Parallelism, 1), part: s.Partition}
	if st.par >= 2 && len(s.SplitKeys) > 0 {
		st.split = splitSet(s.SplitKeys)
	}
	st.tasks = make([]*task, st.par)
	for p := range st.tasks {
		t := newTask(e, taskKey{store: id, part: p}, s)
		st.tasks[p] = t
		e.sub.start(t)
	}
	e.stores[id] = st
	i, _ := slices.BinarySearchFunc(e.storeOrder, id, func(s *store, id topology.StoreID) int { return cmp.Compare(s.id, id) })
	e.storeOrder = slices.Insert(e.storeOrder, i, st)
}

// retireUnnamed deletes the record of every store no installed
// configuration names any more: no probe can reach its state (Sec. VI-B
// drops a store once no query references it). Each of its tasks, in
// store order so seeded schedules stay stable, gets the retire message
// — the task clears its state and closes its spill file on its own
// execution context — and hands back its credits. It reports whether it
// retired a store. Caller holds e.mu (write).
func (e *Engine) retireUnnamed() bool {
	kept := e.storeOrder[:0]
	for _, st := range e.storeOrder {
		if slices.ContainsFunc(e.configs, func(ec *epochConfig) bool { return ec.topo.Stores[st.id] != nil }) {
			kept = append(kept, st)
			continue
		}
		for _, t := range st.tasks {
			e.inflight.Add(1)
			e.sub.send(t, message{kind: kindRetire})
			e.sub.retire(t)
		}
		delete(e.stores, st.id)
	}
	retired := len(kept) < len(e.storeOrder)
	clear(e.storeOrder[len(kept):])
	e.storeOrder = kept
	return retired
}

// liveTasks yields the task of every partition of every installed
// store, by store ID and partition. Caller holds e.mu.
func (e *Engine) liveTasks() iter.Seq[*task] {
	return func(yield func(*task) bool) {
		for _, st := range e.storeOrder {
			for _, t := range st.tasks {
				if !yield(t) {
					return
				}
			}
		}
	}
}

// taskAt returns the task of the store's partition, or nil when no
// installed store has it. Caller holds e.mu.
func (e *Engine) taskAt(id topology.StoreID, part int) *task {
	st := e.stores[id]
	if st == nil || part < 0 || part >= len(st.tasks) {
		return nil
	}
	return st.tasks[part]
}

// Pins returns the pinned layout of every installed store, sorted by
// store ID.
func (e *Engine) Pins() []StorePin {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]StorePin, 0, len(e.storeOrder))
	for _, st := range e.storeOrder {
		p := StorePin{Store: st.id, Par: st.par, Part: st.part, Born: st.born}
		if len(st.split) > 0 {
			p.Split = slices.Sorted(maps.Keys(st.split))
		}
		out = append(out, p)
	}
	return out
}

// RestorePins overwrites the split sets chosen at first sight with the
// ones a crashed run persisted. Routing reads them through the store
// records, so nothing recompiles. Pins for stores this engine has not
// installed are skipped — they belong to stores the recovering topology
// no longer has. A parallelism or partitioning mismatch for an installed
// store means the engine was configured against a different physical
// layout than the one that wrote the state; that fails closed, before
// any pin changes.
func (e *Engine) RestorePins(pins []StorePin) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range pins {
		st := e.stores[p.Store]
		if st == nil {
			continue
		}
		if st.par != p.Par {
			return fmt.Errorf("runtime: restored pin for store %s has parallelism %d, engine pinned %d", p.Store, p.Par, st.par)
		}
		if st.part != p.Part {
			return fmt.Errorf("runtime: restored pin for store %s partitions by %s, engine pinned %s", p.Store, p.Part.Qualified(), st.part.Qualified())
		}
	}
	for _, p := range pins {
		if st := e.stores[p.Store]; st != nil {
			st.split = nil
			if len(p.Split) > 0 {
				st.split = splitSet(p.Split)
			}
		}
	}
	return nil
}

func splitSet(keys []uint64) map[uint64]struct{} {
	set := make(map[uint64]struct{}, len(keys))
	for _, h := range keys {
		set[h] = struct{}{}
	}
	return set
}
