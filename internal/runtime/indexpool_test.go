package runtime

// Index-pool tests (DESIGN.md §10): every state backend recycles the
// index tables and structs of its dead epochs through one indexPool.
// TestEpochsRecycleIndices pins the saving — a steady stream of epochs
// allocates no index table — and, on a demoted epoch, that a cold stub's
// filter is never recycled with the rest of its index;
// TestPooledIndicesMatchFresh pins that the pool changes no charged byte
// and that it holds one table per size class, shared with nothing;
// TestReleasedTablesPoisoned pins what a stale reader of a released
// table meets.

import (
	"fmt"
	"testing"

	"clash/internal/rng"
	"clash/internal/tuple"
)

// chainGrowths is the allocations of a row chain (colIndex.next) linked
// over n rows: the chain grows by append and is never pooled.
func chainGrowths(n int) int {
	var next []int32
	grows := 0
	for range n {
		if len(next) == cap(next) {
			grows++
		}
		next = append(next, -1)
	}
	return grows
}

// TestEpochsRecycleIndices streams whole epochs through a two-epoch
// window on each backend and counts what one epoch of inserts plus the
// prune of the oldest epoch allocates, once with a probed key, so that
// every epoch holds an index under it, and once without. The epoch's
// index may cost only what is not pooled — its row chain and the
// one-entry index list of the epoch — so its table (four arrays, grown
// four times to 128 slots), its struct, its position cache's map and the
// key positions of the one schema its rows carry (colIndex.posFor) come
// from the epoch the prune dropped.
//
// The demoted row demotes an epoch, streams more epochs of as many keys
// through, and checks that one of them now holds the demoted epoch's
// table while the cold stub's filter still admits every key of the
// demoted rows, and a probe still finds them: the filter is the stub's,
// so the pool never gets it.
//
// The read-through row probes a demoted epoch, which decodes the epoch,
// indexes the decode from the pool and drops it after the scan: when the
// scan returns, the index must be back in the pool — its struct and the
// table it grew to — and the epoch still cold. The read-through-evicted
// row then evicts the epoch, which must free its stub and release
// nothing more to the pool.
func TestEpochsRecycleIndices(t *testing.T) {
	const perEpoch, epochs, keys = 512, 64, 64
	schema := tuple.NewSchema("S.a", "S.b", "S.τ")
	tuples := make([]*tuple.Tuple, perEpoch*epochs)
	for i := range tuples {
		ts := int64(i + 1)
		tuples[i] = tuple.New(schema, tuple.Time(ts), tuple.IntValue(ts%keys), tuple.StringValue("s"), tuple.IntValue(ts))
	}
	perCycle := func(b stateBackend, probed bool) float64 {
		if probed {
			newBackendProbe("S.a").scan(b, noCut, tuple.IntValue(0)) // registers the key
		}
		ep := 0
		cycle := func() {
			for i := 0; i < perEpoch; i++ {
				b.insert(tuples[ep*perEpoch+i], uint64(ep*perEpoch+i), int64(ep))
			}
			b.prune(tuple.Time((ep-1)*perEpoch + 1)) // every epoch before the previous one
			ep++
		}
		cycle()
		cycle()
		avg := testing.AllocsPerRun(epochs-4, cycle)
		if n := len(b.epochs()); n != 2 {
			t.Fatalf("%d epochs resident, want 2 — the prune dropped nothing, test vacuous", n)
		}
		return avg
	}
	for _, row := range []struct {
		name string
		make func() stateBackend
	}{
		{"container", func() stateBackend { return newContainerState() }},
		{"columnar", func() stateBackend { return bareColumnar(nil) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			plain, indexed := perCycle(row.make(), false), perCycle(row.make(), true)
			budget := plain + float64(chainGrowths(perEpoch)) + 1
			t.Logf("per epoch: %.0f objects without an index, %.0f with one (budget %.0f)", plain, indexed, budget)
			if indexed > budget {
				t.Errorf("an indexed epoch allocates %.0f objects, %.0f more than an unindexed one; its row chain and index list take %.0f — the rest is index tables, structs or key positions the pool should have supplied",
					indexed, indexed-plain, budget-plain)
			}
		})
	}

	t.Run("demoted", func(t *testing.T) {
		var failed error
		cs := bareColumnar(&failed)
		defer cs.store.close()
		probe := newBackendProbe("S.a")
		probe.scan(cs, noCut, tuple.IntValue(-1)) // registers the key
		key := &probe.rp.key
		ts := int64(0)
		fill := func(ep, base int64) {
			for i := int64(0); i < 2*keys; i++ {
				ts++
				cs.insert(tuple.New(schema, tuple.Time(ts), tuple.IntValue(base+i%keys), tuple.StringValue("s"), tuple.IntValue(ts)), uint64(ts), ep)
			}
		}
		fill(0, 0)
		fill(1, 1000)
		demoted := cs.ring.get(0).indices.get(key)
		heads := &demoted.heads[0]
		if _, _, ok := cs.demoteOldest(); !ok || !cs.ring.get(0).cold {
			t.Fatal("epoch 0 was not demoted")
		}
		reused := false
		for ep := int64(2); ep < 6; ep++ {
			fill(ep, 1000*ep)
			if ix := cs.ring.get(ep).indices.get(key); &ix.heads[0] == heads {
				reused = true
			}
		}
		if !reused {
			t.Fatal("no later epoch holds the demoted epoch's table — test vacuous")
		}
		f := cs.ring.get(0).stub.filterFor(key)
		for k := int64(0); k < keys; k++ {
			if !f.may(colHash(tuple.IntValue(k))) {
				t.Fatalf("the cold stub's filter rejects key %d of its own rows: a later epoch rewrote it", k)
			}
			if m, _, _ := probe.scan(cs, noCut, tuple.IntValue(k)); len(m) != 2 {
				t.Fatalf("a probe for key %d finds %d rows of the demoted epoch, want 2", k, len(m))
			}
		}
		if failed != nil {
			t.Fatal(failed)
		}
	})

	// readThrough demotes epoch 0 of two and probes it on an empty pool:
	// the probe decodes the epoch, indexes the decode from the pool and
	// drops it after the scan. It returns the store and the slot count
	// the decode's index grows to.
	readThrough := func(t *testing.T, failed *error) (cs *columnarState, slots int) {
		cs = bareColumnar(failed)
		probe := newBackendProbe("S.a")
		probe.scan(cs, noCut, tuple.IntValue(-1)) // registers the key
		for ts := int64(1); ts <= 4*keys; ts++ {
			cs.insert(tuple.New(schema, tuple.Time(ts), tuple.IntValue(ts%keys), tuple.StringValue("s"), tuple.IntValue(ts)), uint64(ts), (ts-1)/(2*keys))
		}
		if _, _, ok := cs.demoteOldest(); !ok {
			t.Fatal("epoch 0 was not demoted")
		}
		// The size the decode's index grows to: a build on an empty pool
		// over the same rows.
		fresh, _ := cs.load(cs.ring.get(0)).indexFor(&probe.rp.key, &indexPool{})
		cs.pool = indexPool{} // whatever the pool holds after the scan, the scan put there
		if m, _, _ := probe.scan(cs, noCut, tuple.IntValue(1)); len(m) != 4 {
			t.Fatalf("the probe finds %d rows, want 4 (2 of them in the cold epoch)", len(m))
		}
		if cs.m.Snapshot().ColdProbeHits == 0 {
			t.Fatal("the probe read nothing through — test vacuous")
		}
		return cs, len(fresh.heads)
	}
	// pooledOnce checks that the pool keeps the read-through's index and
	// nothing else: one struct and a table of the decode's size class.
	pooledOnce := func(t *testing.T, cs *columnarState, slots int) {
		t.Helper()
		live, stubs := liveIndices(cs)
		checkPool(t, &cs.pool, live, stubs)
		if k := sizeClass(slots); len(cs.pool.free) != 1 || k >= len(cs.pool.sets) || cs.pool.sets[k].heads == nil {
			t.Fatalf("the pool keeps %d structs and no %d-slot table: the read-through's index did not go back", len(cs.pool.free), slots)
		}
	}

	t.Run("read-through", func(t *testing.T) {
		var failed error
		cs, slots := readThrough(t, &failed)
		defer cs.store.close()
		if !cs.ring.get(0).cold {
			t.Fatal("the read-through promoted epoch 0")
		}
		pooledOnce(t, cs, slots)
		if failed != nil {
			t.Fatal(failed)
		}
	})

	// The read-through epoch is evicted afterwards (dropOldest; a prune
	// drops a cold slot the same way): the scan already gave its index
	// back, so the eviction must free only the stub — no second release
	// into the pool, and no spill bytes left on the gauge.
	t.Run("read-through-evicted", func(t *testing.T) {
		var failed error
		cs, slots := readThrough(t, &failed)
		defer cs.store.close()
		pooled := &cs.pool.sets[sizeClass(slots)].heads[0]
		if ep, _, _, _, ok := cs.dropOldest(); !ok || ep != 0 {
			t.Fatalf("dropOldest dropped epoch %d (ok %v), want the cold epoch 0", ep, ok)
		}
		pooledOnce(t, cs, slots)
		if &cs.pool.sets[sizeClass(slots)].heads[0] != pooled {
			t.Fatal("the eviction replaced the read-through's pooled table")
		}
		if m := cs.m.Snapshot(); m.SpilledBytes != 0 || cs.spilled.Load() != 0 {
			t.Fatalf("%d spill bytes gauged (%d on the store) after the only cold epoch went", m.SpilledBytes, cs.spilled.Load())
		}
		if failed != nil {
			t.Fatal(failed)
		}
	})
}

// liveIndices returns every index a backend's hot epochs hold, and the
// filters its cold stubs hold.
func liveIndices(b stateBackend) (ixs []*colIndex, stubs []keyFilter) {
	switch st := b.(type) {
	case *containerState:
		for _, c := range st.ring.vals {
			ixs = append(ixs, c.indices...)
		}
	case *columnarState:
		for _, s := range st.ring.vals {
			if !s.cold {
				ixs = append(ixs, s.indices...)
				continue
			}
			for _, sf := range s.stub.filters {
				stubs = append(stubs, sf.filt)
			}
		}
	}
	return ixs, stubs
}

// checkPool checks that the pool holds at most one table set per size
// class — each set at its class's slot and of its class's size — that
// no array it holds is held by anything else, pooled or live (an index's
// table, a cold stub's filter), and that every struct it keeps is reset
// and belongs to no epoch.
func checkPool(t *testing.T, p *indexPool, live []*colIndex, stubs []keyFilter) {
	t.Helper()
	owner := map[any]string{}
	hold := func(ptr any, who string) {
		if prev, ok := owner[ptr]; ok {
			t.Fatalf("%s and %s share an array", prev, who)
		}
		owner[ptr] = who
	}
	for k, set := range p.sets {
		if set.heads == nil {
			if set.tails != nil || set.hashes != nil || set.filt != nil {
				t.Fatalf("pool class %d holds part of a set without its heads", k)
			}
			continue
		}
		n := 16 << k
		if len(set.heads) != n || cap(set.heads) != n || len(set.tails) != n || len(set.hashes) != n ||
			(set.filt != nil && len(set.filt) != n/8) {
			t.Fatalf("pool class %d (%d slots) holds a set of %d/%d/%d slots, filter %d blocks",
				k, n, len(set.heads), len(set.tails), len(set.hashes), len(set.filt))
		}
		who := fmt.Sprintf("pool class %d", k)
		hold(&set.heads[0], who)
		hold(&set.tails[0], who)
		hold(&set.hashes[0], who)
		if set.filt != nil {
			hold(&set.filt[0], who)
		}
	}
	if len(p.free) > poolIndices {
		t.Fatalf("pool keeps %d structs, at most %d", len(p.free), poolIndices)
	}
	for i, ix := range live {
		who := fmt.Sprintf("live index %d", i)
		hold(ix, who)
		if ix.heads != nil {
			hold(&ix.heads[0], who)
			hold(&ix.tails[0], who)
			hold(&ix.hashes[0], who)
			hold(&ix.filt[0], who)
		}
	}
	for i, f := range stubs {
		hold(&f[0], fmt.Sprintf("cold stub filter %d", i))
	}
	for i, ix := range p.free {
		hold(ix, fmt.Sprintf("pooled struct %d", i))
		if ix.heads != nil || ix.filt != nil || ix.next != nil || ix.used != 0 || ix.feed != nil || len(ix.posCache) != 0 || ix.lastSch != nil {
			t.Fatalf("pooled struct %d is not reset: %d slots, %d chain links, %d cached schemas", i, len(ix.heads), len(ix.next), len(ix.posCache))
		}
	}
}

// TestPooledIndicesMatchFresh drives each row of the state matrix
// through a seeded stream whose epochs vary in size and key count, so
// their tables land in different size classes, with two probed keys, one
// retired and re-probed, whole-epoch prunes and evictions and, on the
// tiered row, demotions, read-throughs and promotions (a row into the
// oldest cold epoch). After every epoch
// each live index must be what a fresh index without a pool, linked over
// the same rows, is: the same resident() bytes, chain heads, row chains,
// filter words and slot hashes — the pool changes no charged byte. And
// the pool must pass checkPool. Prunes cut at epoch starts: a compacted
// epoch keeps its arrays' capacity, so it is charged more than a fresh
// index over its survivors would be, with or without the pool.
func TestPooledIndicesMatchFresh(t *testing.T) {
	schema := tuple.NewSchema("S.a", "S.b", "S.τ")
	one, two := newBackendProbe("S.a"), newBackendProbe("S.b", "S.a")
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			var b stateBackend
			var pool *indexPool
			var cs *columnarState
			if row.backend == BackendColumnar {
				cs = bareColumnar(nil)
				defer cs.store.close()
				b, pool = cs, &cs.pool
			} else {
				ct := newContainerState()
				b, pool = ct, &ct.pool
			}
			r := rng.New(7)
			ts, checked, reused := int64(0), 0, 0
			var starts []int64 // each epoch's first event time
			for ep := int64(0); ep < 150; ep++ {
				starts = append(starts, ts+1)
				n := 1 + r.Intn(700)
				keys := 1 + r.Int64n(int64(n))
				for i := 0; i < n; i++ {
					ts++
					b.insert(tuple.New(schema, tuple.Time(ts), tuple.IntValue(r.Int64n(keys)), tuple.IntValue(r.Int64n(3)), tuple.IntValue(ts)), uint64(ts), ep)
				}
				one.scan(b, noCut, tuple.IntValue(r.Int64n(keys)))
				if ep%3 == 0 {
					two.scan(b, noCut, tuple.IntValue(0), tuple.IntValue(r.Int64n(keys)))
				}
				if ep%7 == 6 {
					b.retain([]int32{one.rp.key.num}, nil) // retires two's key
				}
				if cs != nil && row.hot > 0 {
					if ep%4 == 3 {
						cs.demoteOldest()
					} else if cold := coldSlots(cs); ep%8 == 5 && len(cold) > 0 {
						e := cold[0].epoch // a row into it promotes it
						b.insert(tuple.New(schema, tuple.Time(starts[e]), tuple.IntValue(0), tuple.IntValue(0), tuple.IntValue(starts[e])), 1<<40+uint64(ep), e)
					}
				}
				if r.Intn(4) == 0 {
					b.dropOldest()
				} else if keep := 1 + r.Intn(5); keep < len(starts) {
					b.prune(tuple.Time(starts[len(starts)-keep]))
				}
				live, stubs := liveIndices(b)
				for _, ix := range live {
					if ix.pool != nil {
						reused++
					}
				}
				checkFresh(t, b, ep)
				checkPool(t, pool, live, stubs)
				checked += len(live)
			}
			if checked == 0 || reused == 0 {
				t.Fatalf("%d live indices checked, %d of them on the pool — test vacuous", checked, reused)
			}
			if row.hot > 0 {
				if m := cs.m.Snapshot(); m.DemotedEpochs == 0 || m.PromotedEpochs == 0 {
					t.Fatalf("tiered row demoted %d epochs and promoted %d — test vacuous", m.DemotedEpochs, m.PromotedEpochs)
				}
			}
		})
	}
}

// checkFresh compares every index of the backend's hot epochs with a
// fresh, pool-less index linked over the same rows.
func checkFresh(t *testing.T, b stateBackend, ep int64) {
	t.Helper()
	compare := func(ix, fresh *colIndex, where string) {
		t.Helper()
		same := ix.resident() == fresh.resident() && ix.used == fresh.used &&
			len(ix.heads) == len(fresh.heads) && cap(ix.next) == cap(fresh.next)
		for i := 0; same && i < len(ix.heads); i++ {
			same = ix.heads[i] == fresh.heads[i] && (ix.heads[i] < 0 || ix.hashes[i] == fresh.hashes[i] && ix.tails[i] == fresh.tails[i])
		}
		for i := 0; same && i < len(ix.filt); i++ {
			same = ix.filt[i] == fresh.filt[i]
		}
		for i := 0; same && i < len(ix.next); i++ {
			same = ix.next[i] == fresh.next[i]
		}
		if !same {
			t.Fatalf("after epoch %d, %s: index %q (%d B, %d slots, %d used) differs from a fresh one over its rows (%d B, %d slots, %d used)",
				ep, where, ix.key.id, ix.resident(), len(ix.heads), ix.used, fresh.resident(), len(fresh.heads), fresh.used)
		}
	}
	switch st := b.(type) {
	case *containerState:
		for i, c := range st.ring.vals {
			for _, ix := range c.indices {
				fresh := &colIndex{key: ix.key}
				for row := range c.entries {
					fresh.addRow(c.entries[row].t, int32(row))
				}
				compare(ix, fresh, fmt.Sprintf("container of epoch %d", st.ring.eps[i]))
			}
		}
	case *columnarState:
		for _, s := range st.ring.vals {
			if s.cold {
				continue
			}
			for _, ix := range s.indices {
				fresh := &colIndex{key: ix.key}
				s.linkRows(fresh)
				compare(ix, fresh, fmt.Sprintf("segment of epoch %d", s.epoch))
			}
		}
	}
}

// TestReleasedTablesPoisoned releases an index and reads its table
// through a copy taken before the release — a reader that still holds
// the dead index. The poisoned filter admits every hash, a hash the
// table held finds its slot, and the chain walk from that slot panics
// instead of following rows; a hash the table never held still misses.
// The pool then hands the table to a new index empty.
func TestReleasedTablesPoisoned(t *testing.T) {
	defer func(on bool) { tuple.PoisonRecycled = on }(tuple.PoisonRecycled)
	tuple.PoisonRecycled = true
	schema := tuple.NewSchema("S.a", "S.τ")
	key := indexKey{id: "S.a", attrs: []string{"S.a"}}
	pool := &indexPool{}
	ix := pool.index(&key)
	for row := int32(0); row < 40; row++ {
		ix.addRow(tuple.New(schema, 0, tuple.IntValue(int64(row%20)), tuple.IntValue(0)), row)
	}
	stale := *ix
	pool.release(ix)
	h := colHash(tuple.IntValue(3))
	slot, ok, filtered := stale.find(h)
	if !ok || filtered || stale.heads[slot] != poisonRow {
		t.Fatalf("the released table answers a hash it held with ok=%v filtered=%v head %d, want its slot with head %d",
			ok, filtered, stale.heads[slot], poisonRow)
	}
	if _, ok, _ := stale.find(colHash(tuple.IntValue(99))); ok {
		t.Fatal("the released table finds a hash it never held")
	}
	panicked := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		for row := stale.heads[slot]; row >= 0; row = stale.next[row] {
		}
		return false
	}()
	if !panicked {
		t.Fatal("the chain walk over a released table did not panic")
	}

	next := pool.index(&key)
	if next != ix {
		t.Fatal("the pool did not hand out the released struct")
	}
	for row := int32(0); row < 40; row++ {
		next.addRow(tuple.New(schema, 0, tuple.IntValue(int64(100+row%20)), tuple.IntValue(0)), row)
	}
	if &next.heads[0] != &stale.heads[0] {
		t.Fatalf("a new index of %d slots did not grow into the released %d-slot table", len(next.heads), len(stale.heads))
	}
	for i, head := range next.heads {
		if head == poisonRow {
			t.Fatalf("slot %d of the reused table still holds the poison", i)
		}
	}
	if _, ok, _ := next.find(h); ok {
		t.Fatal("the reused table finds a hash of its previous owner")
	}
}
