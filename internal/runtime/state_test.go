package runtime

// State-backend tests (DESIGN.md §10): cross-backend result
// equivalence, the byte-accounting contract (deltas telescope to zero,
// index overhead included — the seed accounting ignored it), the
// bounded-memory epoch shedding, store retirement on rewiring, and
// the columnar hot-path allocation budgets.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// stateRow is one row of the state-configuration matrix. The table is
// defined once, in internal/sim (sim.StateConfigs); that package imports
// this one, so the tests here iterate a local copy of its three rows.
type stateRow struct {
	name    string // "tiered" labels the columnar store under a hot budget
	backend StateBackendKind
	hot     int64 // forcing StateHotBytes: every run demotes and reads back
}

func backendKinds() []stateRow {
	return []stateRow{
		{"container", BackendContainer, 0},
		{"columnar", BackendColumnar, 0},
		{"tiered", BackendColumnar, 4 << 10},
	}
}

func (r stateRow) String() string { return r.name }

// apply selects the row on an engine config.
func (r stateRow) apply(cfg Config) Config {
	cfg.StateBackend, cfg.StateHotBytes = r.backend, r.hot
	return cfg
}

// TestBackendEquivalenceWindowed runs the same windowed, partitioned,
// multi-epoch stream with interleaved prunes on every row of the state
// matrix and byte-compares the result multisets (and all against the
// oracle). The stream's values are mixedStream's — every kind, and the
// bit patterns only a store that keeps the kind beside the payload keeps
// apart — and the plan materializes S⋈T, so one store holds joined rows
// of two schemas. A second phase — compared across rows, container
// first — adds the inputs where hot and cold slots meet on the tiered
// row: late inserts into demoted epochs, a prune cut that lands inside a
// cold epoch, and a state-budget shed on every task. The rows'
// snapshots of what is left must then be byte-identical.
func TestBackendEquivalenceWindowed(t *testing.T) {
	const window, epochLen = 40, 32
	est := flatEstimates([]string{"R", "S", "T", "U"}, 100)
	est.SetSelectivity(query.Predicate{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}}, 0.5)
	var ref, refName string
	var refSnap []byte
	for _, row := range backendKinds() {
		spillDir := t.TempDir()
		h := newHarness(t, "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)",
			core.Options{StoreParallelism: 3}, est,
			row.apply(Config{Substrate: SubstrateSynchronous, DefaultWindow: window, EpochLength: epochLen, StateSpillDir: spillDir}))
		ins := mixedStream(h.cat, 400, epochLen, 91)
		for i, in := range ins {
			if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				t.Fatal(err)
			}
			if i%60 == 59 {
				h.eng.PruneBefore(h.eng.Watermark() - window)
			}
		}
		h.eng.Drain()
		h.checkAgainstOracle(t, ins)
		if row.name == "columnar" {
			checkMixedColumns(t, h.eng)
		}

		// Late arrivals, one per relation and key, into the epoch before
		// the watermark's — demoted on the tiered row.
		wm := h.eng.Watermark()
		coldLen := map[*task]map[int64]int{} // tiered row: rows per cold epoch
		for tk := range h.eng.liveTasks() {
			if tk.tier == nil {
				continue
			}
			coldLen[tk] = map[int64]int{}
			for _, s := range tk.tier.ring.vals {
				if s.cold {
					coldLen[tk][s.epoch] = s.rows()
				}
			}
		}
		late := (wm/epochLen)*epochLen - 3
		for key := int64(0); key < 5; key++ {
			for _, rel := range h.cat.Names() {
				vals := make([]tuple.Value, len(h.cat.Relation(rel).Attrs))
				for j := range vals {
					vals[j] = tuple.IntValue(key)
				}
				if err := h.eng.Ingest(rel, late, vals...); err != nil {
					t.Fatal(err)
				}
			}
		}
		h.eng.Drain()
		// A cut between that epoch's late arrivals and its older rows: on
		// the tiered row the straddled epoch is cold again by now.
		cut := late - 2
		lateLanded, cutInCold := false, false
		for tk, lens := range coldLen {
			for ep, n := range lens {
				lateLanded = lateLanded || tk.state.epochLen(ep) > n
			}
			for _, s := range tk.tier.ring.vals {
				cutInCold = cutInCold || (s.cold && s.minTS < int64(cut) && int64(cut) <= s.maxTS)
			}
		}
		h.eng.PruneBefore(cut)
		h.eng.Drain()
		// Shed every task down to its arrival epoch — on the tiered row
		// through rings that mix cold slots with the hot boundary epoch
		// the prune just promoted.
		for tk := range h.eng.liveTasks() {
			tk.evictToLimit(0)
		}
		// Probe what is left with a fresh in-order tail.
		for _, in := range mixedStream(h.cat, 80, epochLen, 92) {
			if err := h.eng.Ingest(in.Rel, wm+in.TS, in.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		h.eng.Drain()

		got := fmt.Sprint(sortedResults(h.sinks["q1"])) + fmt.Sprint(sortedResults(h.sinks["q2"]))
		m := h.eng.Metrics().Snapshot()
		if h.sinks["q1"].Count() == 0 || h.sinks["q2"].Count() == 0 {
			t.Fatalf("%v: a query produced nothing — test vacuous", row)
		}
		if m.EvictedEpochs == 0 {
			t.Fatalf("%v: the shed dropped nothing — test vacuous", row)
		}
		switch row.name {
		case "columnar":
			// No hot budget, no spill tier: nothing demotes and no spill
			// file is ever created, not even an unlinked one.
			if m.SpilledBytes != 0 || m.DemotedEpochs != 0 {
				t.Errorf("budget-less columnar spilled (bytes=%d demoted=%d)", m.SpilledBytes, m.DemotedEpochs)
			}
			for tk := range h.eng.liveTasks() {
				if tk.state.(*columnarState).store.f != nil {
					t.Errorf("budget-less columnar task %v opened a spill file", tk.key)
				}
			}
			if segs, _ := filepath.Glob(filepath.Join(spillDir, "clash-spill-*.seg")); len(segs) != 0 {
				t.Errorf("budget-less columnar left spill files: %v", segs)
			}
		case "tiered":
			if m.DemotedEpochs == 0 || m.ColdProbeHits == 0 {
				t.Errorf("tiered row never spilled or never read back (demoted=%d cold hits=%d)", m.DemotedEpochs, m.ColdProbeHits)
			}
			if !lateLanded {
				t.Error("no late arrival landed in a demoted epoch — phase vacuous")
			}
			if !cutInCold {
				t.Error("the prune cut straddled no cold epoch — phase vacuous")
			}
		}
		var snap bytes.Buffer
		if err := h.eng.Checkpoint(&snap); err != nil {
			t.Fatal(err)
		}
		h.eng.Stop()
		if ref == "" {
			ref, refName, refSnap = got, row.name, snap.Bytes()
			continue
		}
		if got != ref {
			t.Errorf("%v produced different results than %s", row, refName)
		}
		if !bytes.Equal(snap.Bytes(), refSnap) {
			t.Errorf("%v's snapshot of the state left differs from %s's (%d vs %d bytes)", row, refName, snap.Len(), len(refSnap))
		}
	}
}

// checkMixedColumns fails the test unless some hot epoch of the
// columnar engine holds rows of two schemas and some column created its
// string column after its first row — the shapes the mixed fixtures are
// there to reach.
func checkMixedColumns(t *testing.T, e *Engine) {
	t.Helper()
	twoSchemas, lateString := false, false
	for tk := range e.liveTasks() {
		for _, s := range tk.state.(*columnarState).ring.vals {
			twoSchemas = twoSchemas || len(s.schemas) > 1
			for _, c := range s.cols {
				lateString = lateString || len(c.strs) > 0 && c.kinds[0] != tuple.String
			}
		}
	}
	if !twoSchemas || !lateString {
		t.Fatalf("no epoch holds two schemas (%v), or none created a string column after its first row (%v) — exactness inputs vacuous",
			twoSchemas, lateString)
	}
}

// TestBackendAccountingTelescopes drives each backend directly through
// inserts, index-building probes under a one- and a two-attribute key,
// prunes, and evictions (and, on the tiered row, demotions, probes that
// read cold epochs through, and the promotion of a prune cut inside a
// cold epoch), asserting after every operation that the
// accumulated deltas equal the backend's resident bytes — and reach
// exactly zero when drained.
func TestBackendAccountingTelescopes(t *testing.T) {
	schema := tuple.NewSchema("R.a", "R.b", "R.τ")
	mk := func(ts int64, key int64) *tuple.Tuple {
		return tuple.New(schema, tuple.Time(ts), tuple.IntValue(key), tuple.IntValue(ts), tuple.IntValue(ts))
	}
	one, two := newBackendProbe("R.a"), newBackendProbe("R.b", "R.a")
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			var cands int64
			var b stateBackend = newContainerState()
			var cs *columnarState
			if row.backend == BackendColumnar {
				cs = bareColumnar(nil)
				defer cs.store.close()
				b = cs
			}
			var sum, idxSum int64
			check := func(op string) {
				t.Helper()
				if got := b.bytes(); got != sum {
					t.Fatalf("%s: bytes() = %d, accumulated deltas %d", op, got, sum)
				}
				if got := b.indexBytes(); got != idxSum {
					t.Fatalf("%s: indexBytes() = %d, accumulated idx deltas %d", op, got, idxSum)
				}
			}
			seq := uint64(1)
			for ts := int64(1); ts <= 300; ts++ {
				d, xd := b.insert(mk(ts, ts%7), seq, ts/64)
				sum += d
				idxSum += xd
				seq++
				check("insert")
				if ts%10 == 0 {
					_, n, xd := one.scan(b, noCut, tuple.IntValue(ts%7))
					cands += n
					sum += xd // index growth is part of the total footprint
					idxSum += xd
					check("one-attribute probe")
				}
				if ts%15 == 0 {
					m, n, xd := two.scan(b, noCut, tuple.IntValue(ts), tuple.IntValue(ts%7))
					if n != 1 || len(m) != 1 {
						t.Fatalf("two-attribute probe of the row just inserted: %d candidates, %d matches, want 1 and 1", n, len(m))
					}
					sum += xd
					idxSum += xd
					check("two-attribute probe")
				}
				if ts%50 == 0 {
					_, d, xd := b.prune(tuple.Time(ts - 120))
					sum += d
					idxSum += xd
					check("prune")
				}
				if row.hot > 0 && ts%40 == 0 {
					d, xd, _ := cs.demoteOldest()
					sum += d
					idxSum += xd
					check("demoteOldest")
				}
			}
			if row.hot > 0 && cs.m.Snapshot().DemotedEpochs == 0 {
				t.Error("tiered row demoted nothing — vacuous")
			}
			if _, removed, d, xd, ok := b.dropOldest(); ok {
				if removed == 0 {
					t.Error("dropOldest removed nothing")
				}
				sum += d
				idxSum += xd
				check("dropOldest")
			} else {
				t.Error("dropOldest refused with multiple epochs resident")
			}
			_, d, xd := b.clear()
			sum += d
			idxSum += xd
			if sum != 0 || idxSum != 0 {
				t.Errorf("deltas do not telescope: bytes %d, index %d after clear", sum, idxSum)
			}
			check("clear")
			if cands == 0 {
				t.Error("probe scans visited nothing — accounting test vacuous")
			}
		})
	}
}

// backendProbe drives a backend's batch scan without an engine: a bare
// task with no windows (so the only cutoff is the caller's), and a rule
// plan pairing each given stored attribute with a column of a synthetic
// probe schema. The index key is whatever setPreds derives — the given
// attributes, sorted.
type backendProbe struct {
	t      *task
	rp     *rulePlan
	st     planState
	schema *tuple.Schema
	pb     probeBatch
}

func newBackendProbe(storedAttrs ...string) *backendProbe {
	bp := &backendProbe{
		t:  &task{schemaCache: map[[2]*tuple.Schema]*tuple.Schema{}},
		rp: &rulePlan{kind: topology.ProbeRule},
	}
	preds := make([]predPlan, len(storedAttrs))
	for i, a := range storedAttrs {
		preds[i] = predPlan{storedAttr: a, probeAttr: fmt.Sprintf("P.k%d", i)}
	}
	bp.rp.setPreds(preds)
	testKeys.Lock()
	bp.rp.key.num = testKeys.nums.number(bp.rp.key.id)
	testKeys.Unlock()
	bp.schema = tuple.NewSchema(bp.rp.probeAttrs...)
	return bp
}

// testKeys numbers the keys of engine-less rule plans the way an
// engine's compiler does, so two backendProbes under one key find the
// same indices.
var testKeys = struct {
	sync.Mutex
	nums keyNumbers
}{nums: keyNumbers{}}

// probeMatch is one stored tuple a backendProbe scan matched.
type probeMatch struct {
	vals []tuple.Value
	ts   tuple.Time
}

// scan probes b once with vals (one per stored attribute, in the order
// given to newBackendProbe) under the window cutoff, and returns the
// stored tuples that matched in scan order, the candidates the index
// delivered, and the bytes of lazily built indices.
func (bp *backendProbe) scan(b stateBackend, cut int64, vals ...tuple.Value) (matches []probeMatch, cands, idxDelta int64) {
	pb := &bp.pb
	pb.reset(bp.t, bp.rp, &bp.st)
	pb.add(tuple.New(bp.schema, 0, vals...), math.MaxUint64)
	pb.cuts[0], pb.minCut = cut, cut
	idxDelta = b.probeScanBatch(&bp.rp.key, pb)
	for _, j := range pb.resTups {
		matches = append(matches, probeMatch{vals: j.Values[len(vals):], ts: j.TS})
	}
	return matches, pb.cands, idxDelta
}

// TestIndexMemoryAccounted is the regression test for the seed
// accounting gap: StoreBytes must include index overhead, report it in
// IndexBytes, and return exactly to zero once the state is pruned away.
// The S store carries two indices — R probes it under the one-attribute
// key {S.a}, T under the two-attribute key {S.a, S.b} — so both shapes
// of key are on the books. Across rows, container and columnar index
// bytes agree within 10 %: both walk the one index kernel, so the same
// stream costs them the same tables and chains, up to the growth steps
// of their row arrays.
func TestIndexMemoryAccounted(t *testing.T) {
	indexBytes := map[string]int64{}
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			// Tiering must not leak accounting either: demoted stubs
			// count as resident, spilled payload does not, and a full
			// prune still telescopes every gauge back to zero.
			cfg := row.apply(Config{Substrate: SubstrateSynchronous, EpochLength: 64})
			h := newHarness(t, "q1: R(a) S(a,b)\nq2: S(a,b) T(a,b)",
				core.Options{StoreParallelism: 2},
				flatEstimates([]string{"R", "S", "T"}, 100), cfg)
			defer h.eng.Stop()
			ins := randomStream(h.cat, 300, 6, 17)
			h.ingestAll(t, ins)
			keyWidths := map[int]bool{} // over the indices of any one epoch holding two
			for tk := range h.eng.liveTasks() {
				var sets []indexSet
				switch st := tk.state.(type) {
				case *containerState:
					for _, c := range st.ring.vals {
						sets = append(sets, c.indices)
					}
				case *columnarState:
					for _, s := range st.ring.vals {
						sets = append(sets, s.indices)
					}
				}
				for _, xs := range sets {
					if len(xs) == 2 {
						keyWidths[len(xs[0].key.attrs)], keyWidths[len(xs[1].key.attrs)] = true, true
					}
				}
			}
			if !keyWidths[1] || !keyWidths[2] {
				t.Fatalf("no epoch carries both a one- and a two-attribute index (key widths seen: %v)", keyWidths)
			}
			m := h.eng.Metrics().Snapshot()
			if m.IndexBytes <= 0 {
				t.Fatalf("IndexBytes = %d after an indexed workload", m.IndexBytes)
			}
			indexBytes[row.name] = m.IndexBytes
			if m.StoreBytes <= m.IndexBytes {
				t.Fatalf("StoreBytes %d does not cover payload beyond IndexBytes %d", m.StoreBytes, m.IndexBytes)
			}
			var payload int64
			for _, g := range h.eng.TaskGauges() {
				if g.StateBytes < g.IndexBytes {
					t.Errorf("task %s/%d: StateBytes %d < IndexBytes %d", g.Store, g.Part, g.StateBytes, g.IndexBytes)
				}
				payload += g.StateBytes
			}
			if payload != m.StoreBytes {
				t.Errorf("Σ task StateBytes %d != StoreBytes %d", payload, m.StoreBytes)
			}
			// Drain the window: accounting must return exactly to zero —
			// any drift means the limit checks slowly rot.
			h.eng.PruneBefore(h.eng.Watermark() + 1)
			h.eng.Drain()
			m = h.eng.Metrics().Snapshot()
			if m.Stored != 0 || m.StoreBytes != 0 || m.IndexBytes != 0 {
				t.Errorf("after full prune: stored=%d storeBytes=%d indexBytes=%d, want all 0",
					m.Stored, m.StoreBytes, m.IndexBytes)
			}
			if m.SpilledBytes != 0 {
				t.Errorf("after full prune: %d bytes still marked spilled", m.SpilledBytes)
			}
		})
	}
	ctr, col := indexBytes["container"], indexBytes["columnar"]
	t.Logf("index bytes on the same stream: container %d, columnar %d", ctr, col)
	if d := float64(col-ctr) / float64(ctr); ctr == 0 || d > 0.10 || d < -0.10 {
		t.Errorf("index bytes differ by %+.1f%% on the same stream: columnar %d, container %d — one kernel should cost both the same",
			d*100, col, ctr)
	}
}

// evictionFixture drives a long-state stream (unbounded window — state
// only grows) into an engine with the given budgets. It returns the
// index of the tuple whose Ingest failed, or after which stop (when
// non-nil) held; -1 when the stream ran to its end.
func evictionFixture(t *testing.T, cfg Config, stop func(*Engine) bool) (*Engine, int, error) {
	t.Helper()
	cfg.Substrate, cfg.EpochLength = SubstrateSynchronous, 64
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100), cfg)
	t.Cleanup(h.eng.Stop)
	ins := randomStream(h.cat, 3000, 8, 29)
	for i, in := range ins {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			return h.eng, i, err
		}
		if stop != nil && stop(h.eng) {
			return h.eng, i, nil
		}
	}
	h.eng.Drain()
	return h.eng, -1, nil
}

// TestStateLimitShedsWhereMemoryLimitDies: StateLimitBytes lets the
// engine survive a stream that grows state far past the budget and keeps
// resident state near the limit, where the same bytes as a
// MemoryLimitBytes budget kill it. Without a spill tier the backends do
// it by shedding whole epochs with counted drops; with one, the columnar
// store demotes them to disk instead — same resident bound, zero tuples
// lost.
func TestStateLimitShedsWhereMemoryLimitDies(t *testing.T) {
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			limit := int64(96 << 10)
			cfg := Config{StateBackend: row.backend}
			if row.hot > 0 {
				// The tier is on but its own budget never binds: the state
				// limit alone drives the demotions (evictToLimit's
				// demote-first). Demotion leaves a small resident stub per
				// cold epoch (summary + key filter); the limit must clear
				// that floor or the task is FORCED to evict once every
				// epoch but the newest is already cold. Still far below
				// what the stream needs resident, so the memory budget dies.
				cfg.StateHotBytes = math.MaxInt64
				limit = 192 << 10
			}
			// Without a budget, the first tuple after which stored bytes
			// alone exceed the limit.
			_, overAt, _ := evictionFixture(t, cfg, func(e *Engine) bool {
				return e.metrics.storeBytes.Load() > limit
			})
			// The same stream under the same bytes as MemoryLimitBytes must
			// die — otherwise the eviction scenario is too weak to mean
			// anything (the memory budget is a hard error, tier or no tier)
			// — and no later than that tuple, since it counts queued
			// messages on top of stored bytes.
			cfg.MemoryLimitBytes = limit
			_, diedAt, err := evictionFixture(t, cfg, nil)
			if !errors.Is(err, ErrMemoryLimit) {
				t.Fatalf("MemoryLimitBytes survived the %d-byte budget (err=%v) — scenario too weak", limit, err)
			}
			if overAt < 0 || diedAt > overAt {
				t.Errorf("MemoryLimitBytes died at tuple %d, stored bytes alone exceed it after tuple %d", diedAt, overAt)
			}
			t.Logf("MemoryLimitBytes=%d died at tuple %d; stored bytes exceed it after tuple %d", limit, diedAt, overAt)
			cfg.MemoryLimitBytes, cfg.StateLimitBytes = 0, limit
			eng, _, err := evictionFixture(t, cfg, nil)
			if err != nil {
				t.Fatalf("StateLimitBytes failed the engine: %v", err)
			}
			m := eng.Metrics().Snapshot()
			if row.hot > 0 {
				// Demote-first: the limit is honored by spilling, and the
				// answer-changing path (eviction) never fires.
				if m.EvictedEpochs != 0 || m.EvictedTuples != 0 {
					t.Fatalf("tiered row evicted (epochs=%d tuples=%d) instead of demoting",
						m.EvictedEpochs, m.EvictedTuples)
				}
				if m.DemotedEpochs == 0 || m.SpilledBytes == 0 {
					t.Fatalf("no demotions counted (epochs=%d spilled=%d)", m.DemotedEpochs, m.SpilledBytes)
				}
			} else if m.EvictedEpochs == 0 || m.EvictedTuples == 0 {
				t.Fatalf("no evictions counted (epochs=%d tuples=%d)", m.EvictedEpochs, m.EvictedTuples)
			}
			// Every task sheds down to its arrival epoch, so resident state
			// stays within the budget plus one epoch's worth of slack.
			if m.StoreBytes > 2*limit {
				t.Errorf("resident state %d far exceeds the %d budget", m.StoreBytes, limit)
			}
			if m.Results == 0 {
				t.Error("eviction run produced no results — vacuous")
			}
			t.Logf("evicted %d epochs / %d tuples, demoted %d epochs / %d spilled bytes, resident %d bytes, %d results",
				m.EvictedEpochs, m.EvictedTuples, m.DemotedEpochs, m.SpilledBytes, m.StoreBytes, m.Results)
		})
	}
}

// TestRetireAbsentStores: removing a query retires the stores that only
// it used — their state is released on the next rewiring, and the
// shared query keeps answering.
func TestRetireAbsentStores(t *testing.T) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)\nq2: T(b) U(b)")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Catalog: cat, Substrate: SubstrateSynchronous})
	defer eng.Stop()
	ctl, err := NewController(eng, ControllerConfig{
		Optimizer: core.NewOptimizer(core.Options{StoreParallelism: 2}),
		Collector: stats.NewCollector(64, 32, 1),
		Shared:    true,
		Static:    true,
	}, qs, flatEstimates([]string{"R", "S", "T", "U"}, 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		eng.OnResult(q.Name, func(*tuple.Tuple) {})
	}
	ins := randomStream(cat, 400, 6, 41)
	for _, in := range ins {
		if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	before := eng.Metrics().Snapshot()
	if before.Stored == 0 {
		t.Fatal("nothing materialized — test vacuous")
	}
	if err := ctl.RemoveQuery("q2"); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	after := eng.Metrics().Snapshot()
	if after.RetiredTuples == 0 {
		t.Fatal("removing q2 retired no state")
	}
	if after.Stored >= before.Stored || after.StoreBytes >= before.StoreBytes {
		t.Errorf("retirement did not shrink state: stored %d→%d bytes %d→%d",
			before.Stored, after.Stored, before.StoreBytes, after.StoreBytes)
	}
	topo := eng.ConfigFor(eng.Epoch(eng.Watermark()))
	for _, g := range eng.TaskGauges() {
		if topo.Stores[g.Store] == nil && g.Stored != 0 {
			t.Errorf("retired store %s still holds %d tuples in partition %d", g.Store, g.Stored, g.Part)
		}
	}
	// The surviving query still answers over its retained state.
	preResults := after.Results
	for i := 0; i < 50; i++ {
		ts := eng.Watermark() + tuple.Time(1+i)
		if err := eng.Ingest("R", ts, tuple.IntValue(int64(i%6))); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	if eng.Metrics().Snapshot().Results == preResults {
		t.Error("q1 stopped producing after q2's retirement")
	}
}

// TestColumnarProbeAllocs pins the columnar probe budget to the
// container baseline: joining and delivering 8 results to a sink
// allocates nothing once warm. The tiered row is the columnar store with
// its spill tier on under a budget that never binds: with everything
// resident, a whole dispatch of the probe adds only the tier's
// end-of-dispatch maintenance, which may not allocate, so it costs no
// more than on the columnar row.
func TestColumnarProbeAllocs(t *testing.T) {
	handled := map[string]float64{}
	for _, row := range []stateRow{{"columnar", BackendColumnar, 0}, {"tiered", BackendColumnar, math.MaxInt64}} {
		tk, rp, st, _, msg := probeFixture(t, false, 8, row.apply(Config{}))
		tk.probeBatched(msg, rp, st) // warm schema-position and index caches
		objs, bytes := allocsPerRun(200, func() { tk.probeBatched(msg, rp, st) })
		if objs != 0 || bytes != 0 {
			t.Errorf("%s probe allocates %.2f objects, %.1f B per run, want 0 (8 results delivered)", row.name, objs, bytes)
		}
		if (tk.tier != nil) != (row.hot > 0) {
			t.Fatalf("%s row: spill tier on = %v", row.name, tk.tier != nil)
		}
		handled[row.name] = testing.AllocsPerRun(200, func() {
			tk.handle(msg)
		})
	}
	if handled["tiered"] > handled["columnar"] {
		t.Errorf("a hot probe's dispatch allocates more on the tiered row than on the columnar one: %.2f > %.2f objects/run",
			handled["tiered"], handled["columnar"])
	}
}

// TestColumnarPruneAllocs pins the columnar prune budget: steady-state
// insert+prune cycles over a live index reuse every backing array —
// amortized ≤2 allocations per cycle (the container baseline).
func TestColumnarPruneAllocs(t *testing.T) {
	schema := tuple.NewSchema("S.a", "S.τ")
	cs := bareColumnar(nil)
	tuples := make([]*tuple.Tuple, 4096)
	for i := range tuples {
		ts := int64(i + 1)
		tuples[i] = tuple.New(schema, tuple.Time(ts), tuple.IntValue(ts%64), tuple.IntValue(ts))
	}
	next := 0
	for ; next < 1024; next++ {
		cs.insert(tuples[next], uint64(next), 0)
	}
	_, cands, _ := newBackendProbe("S.a").scan(cs, noCut, tuple.IntValue(1)) // build the index
	// Warm the high-water marks.
	for i := 0; i < 256; i++ {
		cs.insert(tuples[next], uint64(next), 0)
		cs.prune(tuple.Time(int64(next) - 1024))
		next++
	}
	avg := testing.AllocsPerRun(1024, func() {
		cs.insert(tuples[next], uint64(next), 0)
		cs.prune(tuple.Time(int64(next) - 1024))
		next++
	})
	if avg > 2.0 {
		t.Errorf("columnar insert+prune cycle allocates %.2f objects/run, want ≤ 2", avg)
	}
	if cs.epochLen(0) == 0 || cands == 0 {
		t.Fatal("vacuous: no resident tuples or no index candidates")
	}
}

// TestColumnarRecyclesColumns: a segment whose rows leave memory hands
// its column arrays to the task's next new segment, so whole epochs
// streaming through the window grow no columns. Per epoch, the inserts
// and the prune that drops the oldest epoch allocate the new segment and
// its schema list — not a doubling of every column, which is ten arrays
// times nine doublings at 512 rows.
func TestColumnarRecyclesColumns(t *testing.T) {
	const perEpoch, epochs = 512, 64
	schema := tuple.NewSchema("S.a", "S.b", "S.τ")
	tuples := make([]*tuple.Tuple, perEpoch*epochs)
	for i := range tuples {
		ts := int64(i + 1)
		tuples[i] = tuple.New(schema, tuple.Time(ts), tuple.IntValue(ts%64), tuple.StringValue("s"), tuple.IntValue(ts))
	}
	cs := bareColumnar(nil)
	ep := 0
	cycle := func() {
		for i := 0; i < perEpoch; i++ {
			cs.insert(tuples[ep*perEpoch+i], uint64(ep*perEpoch+i), int64(ep))
		}
		cs.prune(tuple.Time((ep-1)*perEpoch + 1)) // every epoch before the previous one
		ep++
	}
	cycle()
	cycle()
	avg := testing.AllocsPerRun(epochs-4, cycle)
	if avg > 4 {
		t.Errorf("an epoch of inserts plus the prune of the oldest allocates %.1f objects, want ≤ 4", avg)
	}
	if n := len(cs.epochs()); n != 2 {
		t.Fatalf("%d epochs resident, want 2 — the prune dropped nothing, test vacuous", n)
	}
}
