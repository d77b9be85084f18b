package runtime

// Index-key tests (DESIGN.md §7, §10): a rule's local index is keyed by
// ALL of its equality predicates, so what the index hands a probe is
// little more than what matches. TestProbeCandidatesFig7 bounds the
// ratio on the paper's ten-query workload; TestCompositeIndexMatchesScan
// drives a two-predicate rule — a three-valued attribute that sorts
// first by name, a unique one that sorts second — through every state
// configuration against the index-free oracle (task.probeLegacy).

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clash/internal/core"
	"clash/internal/rng"
	"clash/internal/tpch"
	"clash/internal/tuple"
)

// TestProbeCandidatesFig7 runs the Fig. 7 ten-query stream (at the
// Fig. 7 bench's scale factor, over the benchmark's window of 0.3 of
// the stream in 16 epochs, pruned four times an epoch) on every state
// configuration and asserts
// that the indices deliver at most 1.10 candidates per matched row.
// What is left above 1.0 no equality index can remove: stored join
// results whose newest member is inside the probe's window and whose
// oldest is not, and out-of-window rows of epochs the next prune has
// not reached yet. An index keyed by one predicate of a multi-predicate
// rule fails this by orders of magnitude: every Lineitem–Orders probe
// then walks the third of the window that shares its status flag.
func TestProbeCandidatesFig7(t *testing.T) {
	queries := tpch.Fig7TenQueries()
	cat, topo, records := tpchFixture(t, queries, 0.002)
	window := records[len(records)-1].TS * 3 / 10
	epoch := window / 16
	var results int64
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			eng := New(row.apply(Config{
				Catalog: cat, Substrate: SubstrateSynchronous,
				DefaultWindow: tuple.Duration(window), EpochLength: tuple.Duration(epoch),
			}))
			defer eng.Stop()
			if err := eng.Install(topo, 0); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				eng.OnResult(q.Name, func(*tuple.Tuple) {})
			}
			pruned := tuple.Time(0)
			for _, r := range records {
				if err := eng.Ingest(r.Relation, r.TS, r.Vals...); err != nil {
					t.Fatal(err)
				}
				if r.TS-pruned >= epoch/4 {
					pruned = r.TS
					eng.PruneBefore(r.TS - window)
				}
			}
			eng.Drain()
			m, matched := eng.Metrics().Snapshot(), matchedRows(eng)
			if matched == 0 || m.Results == 0 {
				t.Fatalf("no matches (%d) or no results (%d) — bound vacuous", matched, m.Results)
			}
			if results == 0 {
				results = m.Results
			}
			if m.Results != results {
				t.Errorf("%d results, the container row had %d", m.Results, results)
			}
			if row.hot > 0 && (m.DemotedEpochs == 0 || m.ColdProbeHits == 0) {
				t.Errorf("tiered row never spilled or never read back (demoted=%d cold hits=%d)", m.DemotedEpochs, m.ColdProbeHits)
			}
			ratio := float64(m.ProbeCandidates) / float64(matched)
			t.Logf("%d candidates for %d matched rows: %.3f candidates per match (%d probe tuples, %d results)",
				m.ProbeCandidates, matched, ratio, m.ProbeSent, m.Results)
			if ratio > 1.10 {
				t.Errorf("%.3f candidates per matched row, want ≤ 1.10: a rule is probing an index that does not carry all its predicates", ratio)
			}
			var perTask int64
			for _, g := range eng.TaskGauges() {
				perTask += g.ProbeCandidates
			}
			if perTask != m.ProbeCandidates {
				t.Errorf("Σ task ProbeCandidates %d != engine's %d", perTask, m.ProbeCandidates)
			}
		})
	}
}

// zipfKeys draws n join keys from a zipf law over [0, 512): a few
// hot keys carry long posting lists, the tail is close to unique — the
// shape of a long-state store.
func zipfKeys(n int, seed uint64) []int64 {
	z := rng.NewZipf(rng.New(seed), 512, 1.1)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(z.Draw())
	}
	return keys
}

// ingestZipfProbes sends n S probes at ts into a long-state join:
// one in eight draws its key from the stored law (usually a hit on a
// long chain), the rest miss every stored key.
func ingestZipfProbes(t *testing.T, eng *Engine, n int, ts tuple.Time, seed uint64) {
	t.Helper()
	r, z := rng.New(seed), rng.NewZipf(rng.New(seed+1), 512, 1.1)
	for i := 0; i < n; i++ {
		k := 4*512 + r.Int64n(512)
		if r.Intn(8) == 0 {
			k = int64(z.Draw())
		}
		if err := eng.Ingest("S", ts, tuple.IntValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
}

// TestProbeCandidatesLongWindow bounds candidates per match on the
// long-state shape instead of the Fig. 7 one: a two-way join whose
// window holds 4 000 zipf-keyed rows in 16 epochs, probed by a mix of
// misses and hits on hot keys. On every state configuration the index
// hands a probe at least one and at most 1.10 candidates per matched
// row, and every row returns the container row's results.
func TestProbeCandidatesLongWindow(t *testing.T) {
	const stored, epochLen = 4000, 256
	keys := zipfKeys(stored, 42)
	var results int64
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			h := newHarness(t, "q1: R(a) S(a)",
				core.Options{StoreParallelism: 1},
				flatEstimates([]string{"R", "S"}, 1000),
				row.apply(Config{Substrate: SubstrateSynchronous, DefaultWindow: 4 * stored, EpochLength: epochLen, StateSpillDir: t.TempDir()}))
			defer h.eng.Stop()
			h.eng.OnResult("q1", func(*tuple.Tuple) {})
			// A first probe keys every segment's index, so a demoted
			// epoch's stub carries the filter that dismisses misses.
			ingestZipfProbes(t, h.eng, 1, 0, 43)
			for i, k := range keys {
				if err := h.eng.Ingest("R", tuple.Time(i+1), tuple.IntValue(k)); err != nil {
					t.Fatal(err)
				}
			}
			ingestZipfProbes(t, h.eng, 200, stored, 43)
			m, matched := h.eng.Metrics().Snapshot(), matchedRows(h.eng)
			if matched == 0 || m.Results == 0 {
				t.Fatalf("no matches (%d) or no results (%d) — bound vacuous", matched, m.Results)
			}
			if results == 0 {
				results = m.Results
			}
			if m.Results != results {
				t.Errorf("%d results, the container row had %d", m.Results, results)
			}
			if row.hot > 0 && (m.DemotedEpochs == 0 || m.ColdProbeHits == 0) {
				t.Errorf("tiered row never spilled or never read back (demoted=%d cold hits=%d)", m.DemotedEpochs, m.ColdProbeHits)
			}
			ratio := float64(m.ProbeCandidates) / float64(matched)
			t.Logf("%d candidates for %d matched rows: %.3f candidates per match (%d results)",
				m.ProbeCandidates, matched, ratio, m.Results)
			if ratio < 1 || ratio > 1.10 {
				t.Errorf("%.3f candidates per matched row, want between 1 and 1.10", ratio)
			}
		})
	}
}

// matchedRows sums the candidates that joined over the engine's tasks
// (task-confined counters: call after a drain on a synchronous engine).
func matchedRows(e *Engine) (n int64) {
	for tk := range e.liveTasks() {
		n += tk.probeMatched
	}
	return n
}

// TestCompositeIndexMatchesScan joins R(a,k) with S(a,k) on both
// attributes: a takes three values and sorts first by name — the
// predicate a first-predicate index would key on, handing every probe a
// third of the store — and k is unique. Container, columnar, and
// columnar under a forcing hot budget must deliver the index-free
// oracle's results in the oracle's order while no probe is handed more
// than two candidates. The stream covers the places the composite key
// has to survive on the spill tier: filters on cold stubs, a late
// insert into a demoted epoch, and a prune cut inside a cold epoch.
func TestCompositeIndexMatchesScan(t *testing.T) {
	const window, epochLen = 200, 16
	type step struct {
		rel  string
		ts   tuple.Time
		a, k int64
		cut  tuple.Time // rel "": a prune at this cutoff instead of an ingest
	}
	var steps []step
	ts := tuple.Time(0)
	pair := func(a, k int64) {
		steps = append(steps, step{rel: "S", ts: ts + 1, a: a, k: k}, step{rel: "R", ts: ts + 2, a: a, k: k})
		ts += 2
	}
	for i := int64(0); i < 200; i++ {
		pair(i%3, i)
		if i%5 == 4 {
			// Probes sharing one attribute with stored rows, never both.
			ts++
			steps = append(steps,
				step{rel: "R", ts: ts, a: (i + 1) % 3, k: i},  // k stored, under another a
				step{rel: "R", ts: ts, a: i % 3, k: 5000 + i}) // a stored thousands of times, k never
		}
		if i%32 == 31 {
			steps = append(steps, step{cut: ts - window})
		}
	}
	// Late pairs whose S half lands five epochs back — demoted on the
	// tiered row — and whose R half arrives now.
	late := (ts/epochLen-5)*epochLen + 3
	for j := int64(0); j < 6; j++ {
		steps = append(steps, step{rel: "S", ts: late + tuple.Time(j), a: j % 3, k: 9000 + j})
		ts++
		steps = append(steps, step{rel: "R", ts: ts, a: j % 3, k: 9000 + j})
	}
	// A cut between that epoch's old rows and its late arrivals, then
	// every key once more: only the rows above the cut still answer.
	cut := late - 1
	steps = append(steps, step{cut: cut})
	for i := int64(0); i < 200; i++ {
		ts++
		steps = append(steps, step{rel: "R", ts: ts, a: i % 3, k: i})
	}
	for j := int64(0); j < 6; j++ {
		ts++
		steps = append(steps, step{rel: "R", ts: ts, a: j % 3, k: 9000 + j})
	}

	type outcome struct {
		results   []string
		worst     int64           // most candidates any one input's probes were handed
		coldKeys  map[string]bool // index-key ids of the filters seen on cold stubs
		lateCold  bool            // a late S row landed in a demoted epoch
		cutInCold bool            // the final cut fell inside a cold epoch
		m         Snapshot
		matched   int64
	}
	run := func(cfg Config) outcome {
		cfg.Substrate, cfg.DefaultWindow, cfg.EpochLength = SubstrateSynchronous, window, epochLen
		h := newHarness(t, "q1: R(a,k) S(a,k)",
			core.Options{StoreParallelism: 1, DisablePartitioning: true},
			flatEstimates([]string{"R", "S"}, 100), cfg)
		defer h.eng.Stop()
		out := outcome{coldKeys: map[string]bool{}}
		h.eng.OnResult("q1", func(tp *tuple.Tuple) { out.results = append(out.results, tp.String()) })
		cold := func(visit func(s *colSegment)) {
			for tk := range h.eng.liveTasks() {
				if tk.tier == nil {
					continue
				}
				for _, s := range tk.tier.ring.vals {
					if s.cold {
						visit(s)
					}
				}
			}
		}
		for _, st := range steps {
			if st.rel == "" {
				cold(func(s *colSegment) {
					out.cutInCold = out.cutInCold || (st.cut == cut && s.minTS < int64(cut) && int64(cut) <= s.maxTS)
				})
				h.eng.PruneBefore(st.cut)
				continue
			}
			cold(func(s *colSegment) {
				for _, kb := range s.stub.filters {
					for id, n := range h.eng.keyNums {
						if n == kb.num {
							out.coldKeys[id] = true
						}
					}
				}
				out.lateCold = out.lateCold || (st.rel == "S" && st.k >= 9000 && s.epoch == h.eng.Epoch(st.ts))
			})
			before := h.eng.metrics.probeCands.Load()
			if err := h.eng.Ingest(st.rel, st.ts, tuple.IntValue(st.a), tuple.IntValue(st.k)); err != nil {
				t.Fatal(err)
			}
			out.worst = max(out.worst, h.eng.metrics.probeCands.Load()-before)
		}
		h.eng.Drain()
		out.m, out.matched = h.eng.Metrics().Snapshot(), matchedRows(h.eng)
		return out
	}

	oracle := run(Config{legacyProbe: true})
	if len(oracle.results) < 200 {
		t.Fatalf("the index-free oracle produced %d results — test vacuous", len(oracle.results))
	}
	if oracle.m.ProbeCandidates != 0 {
		t.Fatalf("the oracle consulted an index (%d candidates)", oracle.m.ProbeCandidates)
	}
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			got := run(row.apply(Config{StateSpillDir: t.TempDir()}))
			if !slices.Equal(got.results, oracle.results) {
				t.Errorf("results differ from the index-free scan: %d vs %d\n got: %s\nwant: %s",
					len(got.results), len(oracle.results), strings.Join(got.results, " "), strings.Join(oracle.results, " "))
			}
			t.Logf("%d candidates for %d matched rows, at most %d per input", got.m.ProbeCandidates, got.matched, got.worst)
			if got.worst > 2 {
				t.Errorf("one input's probes were handed %d candidates, want ≤ 2: the index is not keyed by both attributes", got.worst)
			}
			if got.m.ProbeCandidates < got.matched || got.matched != int64(len(oracle.results)) {
				t.Errorf("%d candidates, %d matches, %d oracle results: every result is one match, every match one candidate",
					got.m.ProbeCandidates, got.matched, len(oracle.results))
			}
			if row.hot == 0 {
				return
			}
			composite := fmt.Sprintf("S.a%cS.k", 0)
			if !got.coldKeys[composite] {
				t.Errorf("no cold stub carried a filter for the composite key (saw %v)", got.coldKeys)
			}
			if got.m.DemotedEpochs == 0 || got.m.ColdProbeHits == 0 {
				t.Errorf("tiered row never spilled or never read back (demoted=%d cold hits=%d)", got.m.DemotedEpochs, got.m.ColdProbeHits)
			}
			if !got.lateCold {
				t.Error("no late arrival landed in a demoted epoch — phase vacuous")
			}
			if !got.cutInCold {
				t.Error("the prune cut straddled no cold epoch — phase vacuous")
			}
		})
	}
}

// TestProbeCandidatesCountLaterArrivals pins what a candidate is on both
// backends: every row of the chain a probe walks, including the rows
// that arrived after the probe and are dropped by the sequence check —
// so the count means the same thing whichever backend reports it.
func TestProbeCandidatesCountLaterArrivals(t *testing.T) {
	schema := tuple.NewSchema("R.a", "R.τ")
	cs := bareColumnar(nil)
	defer cs.store.close()
	for name, b := range map[string]stateBackend{"container": newContainerState(), "columnar": cs} {
		for seq := uint64(1); seq <= 4; seq++ { // one chain of four, two epochs
			b.insert(tuple.New(schema, tuple.Time(seq), tuple.IntValue(1), tuple.IntValue(int64(seq))), seq, int64(seq)/3)
		}
		b.insert(tuple.New(schema, 5, tuple.IntValue(2), tuple.IntValue(5)), 5, 1)
		bp := newBackendProbe("R.a")
		pb := &bp.pb
		pb.reset(bp.t, bp.rp, &bp.st)
		pb.add(tuple.New(bp.schema, 0, tuple.IntValue(1)), 3) // arrived before rows 3 and 4
		pb.cuts[0], pb.minCut = noCut, noCut
		b.probeScanBatch(&bp.rp.key, pb)
		if pb.cands != 4 || len(pb.resTups) != 2 {
			t.Errorf("%s: %d candidates, %d matches; want the whole chain of 4 and the 2 earlier rows", name, pb.cands, len(pb.resTups))
		}
	}
}
