package runtime

// Negative-filter tests (DESIGN.md §10, §12). colIndex carries a blocked
// Bloom filter over the hashes its table holds; find consults it before
// the table, so a probe dismisses an epoch that cannot match from one
// word. TestColIndexFilterCoversTable pins the kernel invariant — no
// false negative after any mutation, find equal to a filter-less scan;
// TestProbeFilterSkipsEpochs drives a long window of many epochs through
// every state configuration and pins what the filter may and may not
// change: nothing a probe returns, most of what it visits.

import (
	"slices"
	"testing"

	"clash/internal/core"
	"clash/internal/rng"
	"clash/internal/tuple"
)

// TestColIndexFilterCoversTable drives one colIndex through random
// sequences of the four mutations the kernel has — addRow (which grows
// the table at 3/4 load), an explicit grow, reset, and the reset +
// re-add of survivors that is compaction on either backend — against a
// model of the linked rows. After every step each hash in the table must
// pass the filter, the filter must be one block per eight slots, and
// find must agree with a linear scan of the model: same verdict, same
// chain in insertion order, and a filtered answer only ever on a miss.
// Every other seed grows the index from a pool whose tables of every
// size hold random words in every array: a table taken from the pool
// must behave as a new one, whatever it held before.
func TestColIndexFilterCoversTable(t *testing.T) {
	keyed := tuple.NewSchema("R.a", "R.τ")
	unkeyed := tuple.NewSchema("R.b", "R.τ") // lacks the key: never linked
	key := indexKey{id: "R.a", attrs: []string{"R.a"}}
	var absent, filtered int
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		ix := &colIndex{key: key}
		if seed%2 == 0 {
			ix.pool = junkPool(r, 1<<14)
		}
		var rows []*tuple.Tuple // the owner's rows, numbered by position
		universe := 8 + r.Intn(600)
		add := func(tp *tuple.Tuple) {
			ix.addRow(tp, int32(len(rows)))
			rows = append(rows, tp)
		}
		check := func(op string) {
			t.Helper()
			model := map[uint64][]int32{} // hash → rows in insertion order
			for row, tp := range rows {
				if tp.Schema == keyed {
					h := colHash(tp.At(0))
					model[h] = append(model[h], int32(row))
				}
			}
			if len(ix.filt)*8 != len(ix.heads) || ix.used != len(model) || len(ix.next) != len(rows) {
				t.Fatalf("seed %d %s: %d filter blocks for %d slots, %d used for %d distinct hashes, %d chain links for %d rows",
					seed, op, len(ix.filt), len(ix.heads), ix.used, len(model), len(ix.next), len(rows))
			}
			for i, head := range ix.heads {
				if head >= 0 && !ix.filt.may(ix.hashes[i]) {
					t.Fatalf("seed %d %s: slot %d holds hash %x, the filter rejects it", seed, op, i, ix.hashes[i])
				}
			}
			// Every key of the universe and as many again outside it.
			for k := 0; k < 2*universe; k++ {
				h := colHash(tuple.IntValue(int64(k)))
				want := model[h]
				slot, ok, byFilter := ix.find(h)
				if ok != (want != nil) || (byFilter && ok) {
					t.Fatalf("seed %d %s: find(key %d) ok=%v filtered=%v, the scan finds rows %v", seed, op, k, ok, byFilter, want)
				}
				if !ok {
					absent++
					if byFilter {
						filtered++
					}
					continue
				}
				var chain []int32
				for row := ix.heads[slot]; row >= 0; row = ix.next[row] {
					chain = append(chain, row)
				}
				if !slices.Equal(chain, want) {
					t.Fatalf("seed %d %s: chain of key %d is %v, the scan finds %v", seed, op, k, chain, want)
				}
			}
		}
		for step := 0; step < 60; step++ {
			switch op := r.Intn(10); {
			case op < 6:
				for n := 1 + r.Intn(40); n > 0; n-- {
					if r.Intn(9) == 0 {
						add(tuple.New(unkeyed, 0, tuple.IntValue(1), tuple.IntValue(0)))
					} else {
						add(tuple.New(keyed, 0, tuple.IntValue(int64(r.Intn(universe))), tuple.IntValue(0)))
					}
				}
				check("addRow")
			case op < 7:
				ix.grow()
				check("grow")
			case op < 9:
				kept := rows[:0]
				for _, tp := range rows {
					if r.Intn(3) > 0 {
						kept = append(kept, tp)
					}
				}
				rows = kept[:0]
				ix.reset()
				for _, tp := range kept {
					add(tp)
				}
				check("compact")
			default:
				rows = rows[:0]
				ix.reset()
				check("reset")
			}
		}
	}
	if absent == 0 || filtered*10 < absent*8 {
		t.Errorf("the filter answered %d of %d misses, want at least 8 in 10 — sweep vacuous", filtered, absent)
	}
}

// junkPool is an index pool holding a table of every size from 16 slots
// to most, every word of each random.
func junkPool(r *rng.RNG, most int) *indexPool {
	p := &indexPool{}
	for n := 16; n <= most; n *= 2 {
		t := tableSet{heads: make([]int32, n), tails: make([]int32, n), hashes: make([]uint64, n), filt: make(keyFilter, n/8)}
		for i := range t.heads {
			t.heads[i], t.tails[i], t.hashes[i] = int32(r.Uint64()), int32(r.Uint64()), r.Uint64()
		}
		for i := range t.filt {
			t.filt[i] = r.Uint64()
		}
		p.sets = append(p.sets, t)
	}
	return p
}

// TestProbeFilterSkipsEpochs is the longstate-probe shape at small
// scale: a two-way join over a window of 64 epochs, zipf keys, S:R 4:1,
// on container, columnar and tiered. The filter
// may remove only lookups that would have missed: results equal the
// index-free oracle's in order and ProbeCandidates is the same on every
// row. And it must remove most of them: a model of each store's epochs
// counts, per probe, the epochs in reach that hold no row under the
// probe's key — ProbeFilterRejects may not exceed that count and must
// reach 0.8 of it. A filter kept current on every insert and rebuilt on
// compaction is what the tail checks: a row that arrives late into an
// old epoch, and rows above a prune cut inside an epoch, are found by
// the probes that follow.
func TestProbeFilterSkipsEpochs(t *testing.T) {
	const (
		epochs   = 64
		epochLen = 32
		window   = epochs * epochLen
		universe = 1000
		lateKey  = 1_000_000 // keys from here up are not drawn by the stream
	)
	type step struct {
		rel string
		ts  tuple.Time
		key int64
		cut tuple.Time // rel "": a prune at this cutoff instead of an ingest
	}
	var steps []step
	z := rng.NewZipf(rng.New(7), universe, 0.6)
	ts := tuple.Time(0)
	for i := 0; i < 3*window; i++ {
		ts++
		rel := "S"
		if i%5 == 4 {
			rel = "R"
		}
		// Pruned to the window before every arrival: no resident epoch is
		// out of a probe's window reach, so the container row (which never
		// skips by window) and the columnar rows visit the same epochs.
		steps = append(steps, step{cut: ts - window}, step{rel: rel, ts: ts, key: int64(z.Draw())})
	}
	// Late rows into an epoch twenty back, under keys nothing else has;
	// then a cut inside that epoch, between its old rows and the late
	// ones; then a probe per late key.
	late := (ts/epochLen-20)*epochLen + 10
	for j := int64(0); j < 4; j++ {
		steps = append(steps, step{rel: "S", ts: late + tuple.Time(j), key: lateKey + j})
		ts++
		steps = append(steps, step{rel: "R", ts: ts, key: lateKey + j})
	}
	cut := late - 1
	steps = append(steps, step{cut: cut})
	for j := int64(0); j < 4; j++ {
		ts++
		steps = append(steps, step{rel: "R", ts: ts, key: lateKey + j})
	}
	type outcome struct {
		results []string
		m       Snapshot
		empty   int64 // epochs in a probe's reach holding no row under its key
		lookups int64 // epochs in a probe's reach
		late    int   // results under a late key
		perTask int64 // Σ TaskGauge.ProbeFilterRejects
	}
	run := func(cfg Config) outcome {
		cfg.Substrate, cfg.DefaultWindow, cfg.EpochLength = SubstrateSynchronous, window, epochLen
		h := newHarness(t, "q1: R(a) S(a)",
			core.Options{StoreParallelism: 1, DisablePartitioning: true},
			flatEstimates([]string{"R", "S"}, 100), cfg)
		defer h.eng.Stop()
		var out outcome
		h.eng.OnResult("q1", func(tp *tuple.Tuple) {
			out.results = append(out.results, tp.String())
			if v, _ := tp.Get("R.a"); v.Int() >= lateKey {
				out.late++
			}
		})
		stores := map[string]map[int64][]step{"R": {}, "S": {}} // the rows of each store's epochs
		for _, st := range steps {
			if st.rel == "" {
				h.eng.PruneBefore(st.cut)
				for _, eps := range stores {
					for ep, rows := range eps {
						eps[ep] = slices.DeleteFunc(rows, func(r step) bool { return r.ts < st.cut })
						if len(eps[ep]) == 0 {
							delete(eps, ep)
						}
					}
				}
				continue
			}
			other := "S"
			if st.rel == "S" {
				other = "R"
			}
			for _, rows := range stores[other] {
				out.lookups++
				if !slices.ContainsFunc(rows, func(r step) bool { return r.key == st.key }) {
					out.empty++
				}
			}
			if err := h.eng.Ingest(st.rel, st.ts, tuple.IntValue(st.key)); err != nil {
				t.Fatal(err)
			}
			ep := h.eng.Epoch(st.ts)
			stores[st.rel][ep] = append(stores[st.rel][ep], st)
		}
		h.eng.Drain()
		out.m = h.eng.Metrics().Snapshot()
		for _, g := range h.eng.TaskGauges() {
			out.perTask += g.ProbeFilterRejects
		}
		return out
	}

	oracle := run(Config{legacyProbe: true})
	if len(oracle.results) < window {
		t.Fatalf("the index-free oracle produced %d results — test vacuous", len(oracle.results))
	}
	// Four late S rows, each probed once before the cut and once after.
	if oracle.late != 8 {
		t.Fatalf("%d oracle results carry a late key, want 8 — the late rows or the rows above the cut are not reachable", oracle.late)
	}
	if oracle.m.ProbeFilterRejects != 0 {
		t.Fatalf("the oracle consulted an index filter (%d rejects)", oracle.m.ProbeFilterRejects)
	}
	var cands int64
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			got := run(row.apply(Config{StateSpillDir: t.TempDir()}))
			if !slices.Equal(got.results, oracle.results) {
				t.Fatalf("results differ from the index-free scan: %d vs %d", len(got.results), len(oracle.results))
			}
			if cands == 0 {
				cands = got.m.ProbeCandidates
			}
			if got.m.ProbeCandidates != cands || cands == 0 {
				t.Errorf("%d candidates, the container row had %d", got.m.ProbeCandidates, cands)
			}
			rej := got.m.ProbeFilterRejects
			t.Logf("%d epoch lookups in reach, %d on epochs without the key, %d answered by a filter (%.3f); %d candidates, %d results",
				got.lookups, got.empty, rej, float64(rej)/float64(got.empty), got.m.ProbeCandidates, len(got.results))
			if got.empty*2 < got.lookups {
				t.Fatalf("only %d of %d lookups are on epochs without the key — shape vacuous", got.empty, got.lookups)
			}
			if rej > got.empty {
				t.Errorf("%d filter rejects for %d lookups that could find nothing: a reject was counted where the key is stored, or twice", rej, got.empty)
			}
			if rej == 0 || rej*10 < got.empty*8 {
				t.Errorf("%d filter rejects, want at least 0.8 of the %d lookups on epochs without the key", rej, got.empty)
			}
			if got.perTask != rej {
				t.Errorf("Σ task ProbeFilterRejects %d != engine's %d", got.perTask, rej)
			}
			if row.hot > 0 && (got.m.DemotedEpochs == 0 || got.m.ColdProbeHits == 0) {
				t.Errorf("tiered row never spilled or never read back (demoted=%d cold hits=%d)", got.m.DemotedEpochs, got.m.ColdProbeHits)
			}
		})
	}
}
