package runtime

// The exactness matrix (DESIGN.md §3, §8, §9): the sequence condition
// makes the result multiset independent of the substrate, the schedule
// and the state layout. One table checks it against ReferenceJoin on
// every workload shape × substrate × state row.

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"clash/internal/broker"
	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tpch"
	"clash/internal/tuple"
)

// exactShape is one workload of the matrix and the stream every cell
// ingests. A twoWay shape completes each result in one probe, so the
// asynchronous substrates are exact on it without StepMode too; a lossy
// shape is multi-hop, and they lose its results there until ROADMAP
// item 1(a) lands; a mir shape's plan must materialize a composite
// store, and a split shape's must declare a split key, or it checks
// nothing the others do not. The tpch shape is the paper's Fig. 7
// setting: its queries, catalog, shared topology and stream are
// tpchFixture's, and its workload fields are unused.
type exactShape struct {
	name, workload            string
	opts                      core.Options
	est                       *stats.Estimates
	window                    time.Duration
	epoch                     time.Duration // the tiered row's epoch length in the stream's time unit (0: 64)
	stream                    []Ingestion   // nil: randomStream(n, keys, seed)
	n                         int
	keys                      int64
	seed                      uint64
	tpch                      bool
	twoWay, lossy, mir, split bool
	late                      bool // lateArrivals rewrites the stream
}

// exactColumn is one substrate column; a lossy cell must lose results
// and produce none spurious.
type exactColumn struct {
	name  string
	cfg   Config // StepMode as the cell runs it
	lossy bool
}

// resultDiff counts the results got lacks against want and those it has
// beyond want, and names up to six that differ.
func resultDiff(want, got map[string]int) (missing, spurious int, examples []string) {
	note := func(k string) {
		if len(examples) < 6 {
			examples = append(examples, fmt.Sprintf("%q: %d, oracle %d", k, got[k], want[k]))
		}
	}
	for k, n := range want {
		if d := n - got[k]; d > 0 {
			missing += d
			note(k)
		}
	}
	for k, n := range got {
		if d := n - want[k]; d > 0 {
			spurious += d
			note(k)
		}
	}
	return missing, spurious, examples
}

// resultCount is the size of a result multiset.
func resultCount(m map[string]int) (n int) {
	for _, c := range m {
		n += c
	}
	return n
}

// TestExactnessMatrix runs every shape on every substrate column and
// state row (backendKinds) and compares each query's result multiset
// with ReferenceJoin; both the topology and the oracle's results are
// computed once per shape. Every cell needs results from every query;
// the mir shape needs a composite store in its plan, the split-keys
// shape (on a skewed stream) a split key; the tiered row, whose epoch
// length lets its hot budget bite, needs a demotion and a probe answered
// from a cold epoch; a pinned lossy cell needs a missing result and no
// spurious one.
func TestExactnessMatrix(t *testing.T) {
	// A skewed chain stream: hot key 0 on both join attributes.
	var skewed []Ingestion
	for i := 0; i < 300; i++ {
		rel, key := [...]string{"R", "S", "T"}[i%3], int64(0)
		if i%3 == 2 {
			key = int64(i % 11)
		}
		vals := []tuple.Value{tuple.IntValue(key)}
		if rel == "S" {
			vals = append(vals, tuple.IntValue(key))
		}
		skewed = append(skewed, Ingestion{Rel: rel, TS: tuple.Time(i + 1), Vals: vals})
	}
	mirEst := flatEstimates([]string{"R", "S", "T"}, 100)
	mirEst.SetSelectivity(query.Predicate{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}}, 0.5)
	shapes := []exactShape{
		{name: "two-way-p1", workload: "q1: R(a) S(a)", opts: core.Options{StoreParallelism: 1, DisablePartitioning: true},
			est: flatEstimates([]string{"R", "S"}, 100), n: 200, keys: 10, seed: 42, twoWay: true},
		{name: "two-way-p2", workload: "q1: R(a) S(a)", opts: core.Options{StoreParallelism: 2},
			est: flatEstimates([]string{"R", "S"}, 100), n: 220, keys: 8, seed: 5, twoWay: true},
		// Late arrivals into four-unit epochs: the tiered row writes into
		// demoted epochs and then probes read the rows it wrote back.
		{name: "windowed-two-way", workload: "q1: R(a) S(a)", opts: core.Options{StoreParallelism: 2},
			est: flatEstimates([]string{"R", "S"}, 100), window: 20, epoch: 4, n: 300, keys: 5, seed: 11, twoWay: true, late: true},
		{name: "chain-p4", workload: "q1: R(a) S(a,b) T(b)", opts: core.Options{StoreParallelism: 4},
			est: flatEstimates([]string{"R", "S", "T"}, 100), n: 240, keys: 10, seed: 7, lossy: true},
		{name: "shared-pair", workload: "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)", opts: core.Options{StoreParallelism: 3},
			est: flatEstimates([]string{"R", "S", "T", "U"}, 100), window: 40, n: 300, keys: 5, seed: 21, lossy: true},
		{name: "mir", workload: "q1: R(a) S(a,b) T(b)", opts: core.Options{StoreParallelism: 2},
			est: mirEst, window: 60, n: 320, keys: 5, seed: 33, mir: true},
		{name: "split-keys", workload: "q1: R(a) S(a,b) T(b)", opts: core.Options{StoreParallelism: 3},
			est: degreeEstimates([]string{"R", "S", "T"}, 100, 0, 0.6), window: 60, stream: skewed, split: true},
		// The Fig. 7 stream spans one second of event time: at 500 ms
		// the tiered row has three epochs and demotes and reads back
		// the older ones over a thousand times a run. Its cells cost
		// their cold reads: 0.25 s each here, 0.4 s at 64 ms epochs.
		{name: "tpch", epoch: 500 * time.Millisecond, tpch: true},
	}
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for _, s := range shapes {
		cols := []exactColumn{
			{name: "synchronous", cfg: Config{Substrate: SubstrateSynchronous}},
			{name: "flow-step", cfg: Config{Substrate: SubstrateFlow, StepMode: true, Flow: FlowConfig{MailboxCredits: 32}}},
		}
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			cols = append(cols, exactColumn{name: fmt.Sprintf("sim-step-seed%d", seed),
				cfg: Config{Substrate: SubstrateSim, StepMode: true, Sim: SimConfig{Seed: seed}}})
		}
		if s.twoWay {
			cols = append(cols, exactColumn{name: "flow", cfg: Config{Substrate: SubstrateFlow, Flow: FlowConfig{MailboxCredits: 32}}},
				exactColumn{name: "sim-seed5", cfg: Config{Substrate: SubstrateSim, Sim: SimConfig{Seed: 5}}})
		}
		// Item 1's hole, pinned until item 1(a) flips these cells. Every
		// seed loses the same results (CHANGES.md), so three show it.
		for seed := uint64(1); s.lossy && seed <= 3; seed++ {
			cols = append(cols, exactColumn{name: fmt.Sprintf("sim-lossy-until-item-1a-seed%d", seed),
				cfg: Config{Substrate: SubstrateSim, Sim: SimConfig{Seed: seed}}, lossy: true})
		}

		t.Run(s.name, func(t *testing.T) {
			var qs []*query.Query
			var cat *query.Catalog
			var topo *topology.Config
			ins := s.stream
			if s.tpch {
				var records []broker.Record
				qs = tpch.Fig7Queries()
				cat, topo, records = tpchFixture(t, qs, 0.0002)
				for _, r := range records {
					ins = append(ins, Ingestion{Rel: r.Relation, TS: r.TS, Vals: r.Vals})
				}
			} else {
				qs, cat, topo = compileWorkload(t, s.workload, s.opts, s.est)
				if ins == nil {
					ins = randomStream(cat, s.n, s.keys, s.seed)
				}
				if s.late {
					ins = lateArrivals(ins, tuple.Time(s.epoch), tuple.Time(s.window))
				}
			}
			composite, split := false, false
			for _, st := range topo.Stores {
				composite, split = composite || !st.Base(), split || len(st.SplitKeys) > 0
			}
			if s.mir && !composite || s.split && !split {
				t.Fatalf("plan materializes an intermediate result: %v, declares a split key: %v — shape vacuous", composite, split)
			}
			want := map[string]map[string]int{}
			for _, q := range qs {
				want[q.Name] = ReferenceJoin(q, cat, s.window, ins)
			}
			for _, col := range cols {
				t.Run(col.name, func(t *testing.T) {
					for _, row := range backendKinds() {
						t.Run(row.name, func(t *testing.T) {
							cfg := row.apply(col.cfg)
							cfg.DefaultWindow = s.window
							if row.hot > 0 {
								cfg.EpochLength, cfg.StateSpillDir = cmp.Or(s.epoch, 64), t.TempDir()
							}
							h := installHarness(t, qs, cat, topo, cfg)
							defer h.eng.Stop()
							h.ingestAll(t, ins)
							for _, q := range qs {
								missing, spurious, ex := resultDiff(want[q.Name], h.sinks[q.Name].Results())
								switch {
								case h.sinks[q.Name].Count() == 0:
									t.Errorf("%s: no results — cell vacuous", q.Name)
								case col.lossy && (missing == 0 || spurious > 0):
									t.Errorf("%s: %d results missing, %d spurious; want some missing and none spurious (item 1 fixed? flip the cell): %v",
										q.Name, missing, spurious, ex)
								case !col.lossy && missing+spurious > 0:
									t.Errorf("%s: %d results missing, %d spurious against the oracle: %v", q.Name, missing, spurious, ex)
								}
							}
							if m := h.eng.Metrics().Snapshot(); row.hot > 0 {
								t.Logf("demoted=%d promoted=%d cold hits=%d", m.DemotedEpochs, m.PromotedEpochs, m.ColdProbeHits)
								if m.DemotedEpochs == 0 || m.ColdProbeHits == 0 {
									t.Errorf("tiered row never spilled or never read back (demoted=%d cold hits=%d) — row vacuous", m.DemotedEpochs, m.ColdProbeHits)
								}
								if s.late && m.PromotedEpochs == 0 {
									t.Error("no late arrival landed in a demoted epoch — late stream vacuous")
								}
							}
						})
					}
				})
			}
		})
	}
}

// lateArrivals returns the stream with every seventh ingestion past the
// first window moved two to four epochs behind the watermark, still
// inside the window: on the tiered row it lands in a demoted epoch.
func lateArrivals(ins []Ingestion, epoch, window tuple.Time) []Ingestion {
	out := slices.Clone(ins)
	var wm tuple.Time
	for i := range out {
		if i%7 == 6 && wm > window {
			out[i].TS = wm - 2*epoch - tuple.Time(i)%(2*epoch+1)
		}
		wm = max(wm, out[i].TS)
	}
	return out
}

// TestCompiledPlanEquivalenceWindowed covers the windowed, partitioned,
// multi-query case (shared S–T step, per-relation τ window checks) on
// its own stream and a plan compiled at parallelism 3: the synchronous
// engine must return ReferenceJoin's multiset on every state row.
func TestCompiledPlanEquivalenceWindowed(t *testing.T) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 3}).Optimize(qs, flatEstimates([]string{"R", "S", "T", "U"}, 100))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	ins := randomStream(cat, 400, 5, 13)
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.apply(Config{Substrate: SubstrateSynchronous, DefaultWindow: 40})
			if row.hot > 0 {
				cfg.EpochLength, cfg.StateSpillDir = 64, t.TempDir()
			}
			h := installHarness(t, qs, cat, topo, cfg)
			defer h.eng.Stop()
			h.ingestAll(t, ins)
			h.checkAgainstOracle(t, ins)
			for _, q := range qs {
				if h.sinks[q.Name].Count() == 0 {
					t.Errorf("%s: zero results — equivalence vacuous", q.Name)
				}
			}
		})
	}
}
