package runtime

// Store-filter tests (DESIGN.md §10). A task's store filter answers for
// every hot row under a probed key at once, so its one invariant is
// coverage: every hot resident row that carries the key's attributes has
// its key hash in the filter, after any sequence of the moves that add,
// drop or move rows. TestStoreFilterCoversHotRows drives those moves at
// random on every state row; TestStoreFilterRebuildsAmortized pins the
// sizing rule that keeps rebuilds rare.

import (
	"fmt"
	"testing"

	"clash/internal/core"
	"clash/internal/rng"
	"clash/internal/tuple"
)

// hotEpoch is one hot epoch as the coverage check reads it: its index
// set and its rows as tuples.
type hotEpoch struct {
	indices indexSet
	rows    []*tuple.Tuple
}

// hotEpochs returns the backend's hot epochs.
func hotEpochs(b stateBackend) (eps []hotEpoch) {
	switch st := b.(type) {
	case *containerState:
		for _, c := range st.ring.vals {
			ep := hotEpoch{indices: c.indices}
			for _, en := range c.entries {
				ep.rows = append(ep.rows, en.t)
			}
			eps = append(eps, ep)
		}
	case *columnarState:
		for _, s := range st.ring.vals {
			if s.cold {
				continue
			}
			eps = append(eps, hotEpoch{indices: s.indices, rows: segmentRows(s.view())})
		}
	}
	return eps
}

// probedOf returns the backend's probed keys.
func probedOf(b stateBackend) probedKeys {
	switch st := b.(type) {
	case *containerState:
		return st.probed
	case *columnarState:
		return st.probed
	}
	panic(fmt.Sprintf("unknown backend %T", b))
}

// checkCoverage fails the test unless every hot epoch holds an index
// under every probed key and every hot row carrying a key's attributes
// passes that key's store filter. It returns the rows it checked.
func checkCoverage(t *testing.T, b stateBackend, op string) (checked int) {
	t.Helper()
	eps := hotEpochs(b)
	for _, pk := range probedOf(b) {
		for e, ep := range eps {
			if ep.indices.get(&pk.key) == nil {
				t.Fatalf("%s: hot epoch %d holds no index under probed key %v", op, e, pk.key.attrs)
			}
			for _, tp := range ep.rows {
				pos := allPositions(tp.Schema, pk.key.attrs)
				if pos == nil {
					continue // lacks a key attribute: in no chain, nothing to cover
				}
				checked++
				if !pk.sf.filt.may(hashKey(tp, pos)) {
					t.Fatalf("%s: hot row %v is not in the store filter under %v", op, tp, pk.key.attrs)
				}
			}
		}
	}
	return checked
}

// TestStoreFilterCoversHotRows drives each state row through random
// sequences of every move that changes what is hot — insert, a load
// into an older epoch (the insert LoadTaskEpoch makes, promoting a cold
// epoch first), probes under a one- and a two-attribute key (which
// register keys and rebuild full filters, and on the tiered row read
// cold epochs through), prune, eviction, clear, and on the tiered row
// demotion and promotion (a row into a cold epoch) — and checks coverage
// after every step. A final phase
// loads rows through Engine.LoadTaskEpoch into a running engine.
func TestStoreFilterCoversHotRows(t *testing.T) {
	wide := tuple.NewSchema("R.a", "R.b", "R.τ")
	narrow := tuple.NewSchema("R.a", "R.τ") // lacks R.b: covered under {R.a} only
	one, two := newBackendProbe("R.a"), newBackendProbe("R.b", "R.a")
	const epochLen = 16
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			var checked, rebuilds, promoted int
			for seed := uint64(1); seed <= 12; seed++ {
				r := rng.New(seed)
				var b stateBackend = newContainerState()
				var cs *columnarState
				if row.backend == BackendColumnar {
					cs = bareColumnar(nil)
					defer cs.store.close()
					b = cs
				}
				ts, seq := int64(0), uint64(0)
				add := func(ts, ep int64) {
					seq++
					k := tuple.IntValue(r.Int64n(48))
					if r.Intn(6) == 0 {
						b.insert(tuple.New(narrow, tuple.Time(ts), k, tuple.IntValue(ts)), seq, ep)
					} else {
						b.insert(tuple.New(wide, tuple.Time(ts), k, tuple.IntValue(r.Int64n(4)), tuple.IntValue(ts)), seq, ep)
					}
				}
				filters := map[*probedKey]*uint64{}
				for step := 0; step < 300; step++ {
					var op string
					switch x := r.Intn(100); {
					case x < 35:
						op = "insert"
						for n := 1 + r.Intn(24); n > 0; n-- {
							ts++
							add(ts, ts/epochLen)
						}
					case x < 45:
						op = "load"
						ep := max(0, ts/epochLen-int64(r.Intn(6)))
						for n := 1 + r.Intn(10); n > 0; n-- {
							add(ep*epochLen+r.Int64n(epochLen), ep)
						}
					case x < 62:
						op = "probe"
						one.scan(b, noCut, tuple.IntValue(r.Int64n(48)))
						if r.Intn(2) == 0 {
							two.scan(b, noCut, tuple.IntValue(r.Int64n(4)), tuple.IntValue(r.Int64n(48)))
						}
					case x < 70:
						op = "prune"
						b.prune(tuple.Time(ts - r.Int64n(8*epochLen)))
					case x < 75:
						op = "evict"
						b.dropOldest()
					case x < 77:
						op = "clear"
						b.clear()
					case cs == nil || row.hot == 0:
						continue
					case x < 90:
						op = "demote"
						for n := 1 + r.Intn(3); n > 0; n-- {
							cs.demoteOldest()
						}
					default:
						cold := coldSlots(cs)
						if len(cold) == 0 {
							continue
						}
						op = "promote"
						before := cs.m.Snapshot().PromotedEpochs
						ep := cold[r.Intn(len(cold))].epoch
						add(ep*epochLen+r.Int64n(epochLen), ep) // a row into a cold epoch promotes it
						promoted += int(cs.m.Snapshot().PromotedEpochs - before)
					}
					checked += checkCoverage(t, b, fmt.Sprintf("seed %d step %d (%s)", seed, step, op))
					for _, pk := range probedOf(b) {
						if len(pk.sf.filt) != 0 && filters[pk] != &pk.sf.filt[0] {
							filters[pk] = &pk.sf.filt[0]
							rebuilds++
						}
					}
				}
			}
			t.Logf("%d hot rows checked, %d filter builds, %d promotions", checked, rebuilds, promoted)
			if checked == 0 || rebuilds < 24 {
				t.Errorf("%d rows checked across %d filter builds — sweep vacuous", checked, rebuilds)
			}
			if row.hot > 0 && promoted == 0 {
				t.Error("the tiered row promoted nothing — sweep vacuous")
			}
		})
	}

	// Engine.LoadTaskEpoch into tasks whose keys are probed already.
	for _, row := range backendKinds() {
		t.Run(row.name+"/LoadTaskEpoch", func(t *testing.T) {
			cfg := row.apply(Config{Substrate: SubstrateSynchronous, EpochLength: epochLen, StateSpillDir: t.TempDir()})
			h := newHarness(t, "q1: R(a) S(a)",
				core.Options{StoreParallelism: 2},
				flatEstimates([]string{"R", "S"}, 100), cfg)
			defer h.eng.Stop()
			h.ingestAll(t, randomStream(h.cat, 400, 12, 5))
			h.eng.Drain()
			r := rng.New(9)
			loaded, checked := 0, 0
			for tk := range h.eng.liveTasks() {
				k := tk.key
				eps := tk.state.epochs()
				if len(eps) == 0 {
					continue
				}
				sc := segmentRows(tk.state.segment(eps[0], nil))[0].Schema
				for _, ep := range []int64{eps[0], eps[len(eps)-1], eps[len(eps)-1] + 1} {
					sg := Segment{Key: SegKey{Store: k.store, Part: k.part, Epoch: ep}}
					for n := 0; n < 8; n++ {
						vals := make([]tuple.Value, sc.Len())
						for i := range vals {
							vals[i] = tuple.IntValue(100 + r.Int64n(1000))
						}
						sg.Append(tuple.New(sc, tuple.Time(ep*epochLen), vals...), uint64(n))
					}
					if err := h.eng.LoadTaskEpoch(&sg); err != nil {
						t.Fatal(err)
					}
					loaded += sg.Len()
				}
				checked += checkCoverage(t, tk.state, fmt.Sprintf("task %s/%d after LoadTaskEpoch", k.store, k.part))
			}
			if loaded == 0 || checked == 0 {
				t.Fatalf("%d rows loaded, %d hot rows checked under a probed key — vacuous", loaded, checked)
			}
			// Probes under keys no store holds are answered by the store
			// filters (but for a false positive now and then), and counted
			// engine-wide and per task alike.
			before := h.eng.Metrics().Snapshot().ProbeStoreSkips
			for k := int64(0); k < 16; k++ {
				if err := h.eng.Ingest("R", h.eng.Watermark()+1, tuple.IntValue(1_000_000+k)); err != nil {
					t.Fatal(err)
				}
			}
			h.eng.Drain()
			skips := h.eng.Metrics().Snapshot().ProbeStoreSkips
			var perTask int64
			for _, g := range h.eng.TaskGauges() {
				perTask += g.ProbeStoreSkips
			}
			if skips-before < 12 || perTask != skips {
				t.Errorf("16 probes under absent keys: %d store skips (Σ tasks %d of %d in all), want ≥ 12 and equal sums", skips-before, perTask, skips)
			}
		})
	}
}

// TestStoreFilterRebuildsAmortized pins the sizing rule: a filter is
// rebuilt at its capacity, to twice the hashes it then covers, so a
// store at steady state — a window of 8 epochs, one probe per insert,
// the epoch that leaves the window pruned at every boundary — rebuilds
// at most once per window of inserts over 64 epochs. A filter sized to
// what it covers plus a constant rebuilds every few inserts.
func TestStoreFilterRebuildsAmortized(t *testing.T) {
	const epochLen, window, epochs = 256, 8, 64
	schema := tuple.NewSchema("R.a", "R.τ")
	probe := newBackendProbe("R.a")
	for _, row := range backendKinds()[:2] {
		t.Run(row.name, func(t *testing.T) {
			var b stateBackend = newContainerState()
			if row.backend == BackendColumnar {
				b = bareColumnar(nil)
			}
			r := rng.New(3)
			builds, inserts := 0, 0
			var last *uint64
			for ts := int64(0); ts < epochs*epochLen; ts++ {
				b.insert(tuple.New(schema, tuple.Time(ts), tuple.IntValue(r.Int64n(1<<40)), tuple.IntValue(ts)), uint64(ts), ts/epochLen)
				if ts%epochLen == epochLen-1 {
					b.prune(tuple.Time(ts + 1 - window*epochLen))
				}
				probe.scan(b, noCut, tuple.IntValue(-1))
				if f := probedOf(b)[0].sf.filt; &f[0] != last {
					last = &f[0]
					if ts >= window*epochLen { // past the first window's growth
						builds++
					}
				}
				if ts >= window*epochLen {
					inserts++
				}
			}
			t.Logf("%d rebuilds over %d steady-state inserts (window %d)", builds, inserts, window*epochLen)
			if limit := inserts / (window * epochLen); builds > limit {
				t.Errorf("%d rebuilds over %d inserts, want at most one per window of %d (%d)", builds, inserts, window*epochLen, limit)
			}
			if builds == 0 {
				t.Error("the filter was never rebuilt at steady state — test vacuous")
			}
		})
	}
}
