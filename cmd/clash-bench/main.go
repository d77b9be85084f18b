// Command clash-bench regenerates the paper's evaluation figures. Each
// -fig value prints the series the corresponding figure plots:
//
//	7b, 7c, 7d — multi-query performance on TPC-H (throughput, memory,
//	             latency) for FI/SI/FS/SS/CMQO with 5 and 10 queries
//	8a, 8b     — adaptive vs. static latency over time under changing
//	             data characteristics
//	9a..9f     — ILP probe-cost savings, problem sizes, and runtimes
//	overload   — overload survival across execution substrates: the
//	             unbounded substrate dies at the memory budget while
//	             the flow-controlled substrate degrades gracefully
//	simsweep   — deterministic-schedule sweep: the TPC-H multi-query
//	             equivalence oracle across -seeds seeded interleavings
//	             on the simulation substrate, with same-seed replay
//	             verification and an injected-fault scenario (source
//	             hiccup under flow control) replayed from its seed;
//	             -backend selects the state backend of the sim runs
//	longstate  — state-backend shoot-out on a long-state workload:
//	             per-backend probe/prune ns+allocs, resident/heap
//	             bytes, and the bounded-memory eviction stage
//	             (EvictFail dies, EvictOldestEpoch survives)
//	skew       — zipf-keyed TPC-H stream under a uniform-cost vs a
//	             degree-aware plan: the degree sketches let the
//	             optimizer split heavy-hitter keys across two tasks,
//	             and the handled-tuple imbalance (max/mean) must drop
//	             while results stay identical
//	cluster    — scale-out: the TPC-H orders ⋈ lineitem stream through
//	             the cluster front door at 1/2/4 shards (key-hash
//	             routing + token-bucket admission); reports ingest
//	             throughput, routing imbalance, and admission drops,
//	             with the result count gated identical across shard
//	             counts
//	churn      — incremental re-optimization: Fig. 9-regime query churn
//	             at 100/500/1000 queries, re-optimizing every step from
//	             scratch vs with cross-churn state (incumbent warm
//	             start, MIR memo, component-solution cache); reports
//	             optimizer wall time, BnB nodes explored, memo hit
//	             rate, and plan cost per arm, with incremental cost
//	             required ≤ scratch at every step
//	chaos      — crash-recovery chaos suite: -seeds crash-restart-replay
//	             runs per state backend (task panics + torn WAL tails
//	             active), each byte-compared against an uninterrupted
//	             oracle, plus the durability tax (WAL + incremental
//	             checkpoints vs baseline, gated at <10%)
//	all        — everything (the default)
//
// Scale knobs (-sf, -rate, -quick) trade fidelity for wall time; the
// defaults finish in a few minutes on a laptop.
//
// -compare BENCH_fig7.json diffs the current Fig. 7 run against a
// checked-in baseline and exits non-zero when a tracked metric
// regresses by more than -regress-pct percent, so the perf trajectory
// across PRs is enforced rather than just recorded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"clash/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clash-bench: ")
	var (
		fig        = flag.String("fig", "all", "comma-separated figures to regenerate (7b,7c,7d,8a,8b,9a..9f,overload,simsweep,longstate,skew,cluster,churn,chaos,all)")
		sf         = flag.Float64("sf", 0.002, "TPC-H scale factor for Fig. 7")
		quick      = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
		solveTO    = flag.Duration("solve-limit", 20*time.Second, "per-ILP time limit for Fig. 9")
		seed       = flag.Uint64("seed", 42, "workload seed")
		seeds      = flag.Int("seeds", 16, "schedule seeds for -fig simsweep")
		backendF   = flag.String("backend", "container", "state-matrix row for the -fig simsweep runs, and filter for -fig longstate (container|columnar|tiered; tiered = columnar under a hot budget)")
		jsonOut    = flag.String("json", "", "write the Fig. 7 series as machine-readable JSON to this file (perf tracking across PRs)")
		compareTo  = flag.String("compare", "", "baseline Fig. 7 JSON (e.g. BENCH_fig7.json): diff this run against it and exit 1 on regressions")
		regressPct = flag.Float64("regress-pct", 10, "regression threshold for -compare, in percent")
	)
	flag.Parse()

	want := func(name string) bool {
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(f)
			if f == "all" || strings.EqualFold(f, name) ||
				(len(name) > 1 && strings.EqualFold(f, name[:1])) {
				return true
			}
		}
		return false
	}

	// A comparison run must reproduce the baseline's workload: adopt its
	// recorded scale factor and seed unless explicitly overridden.
	var baseline []fig7Series
	var baselineLong []bench.LongStateResult
	var baselineSkew []bench.SkewResult
	var baselineCluster []bench.ClusterBenchResult
	var baselineChurn []bench.ChurnResult
	if *compareTo != "" {
		bsf, bseed, series, longstate, skew, clusterRows, churnRows, err := readFig7JSON(*compareTo)
		if err != nil {
			log.Fatal(err)
		}
		baseline = series
		baselineLong = longstate
		baselineSkew = skew
		baselineCluster = clusterRows
		baselineChurn = churnRows
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["sf"] {
			*sf = bsf
		}
		if !explicit["seed"] {
			*seed = bseed
		}
	}

	backend, err := bench.ParseBackend(*backendF)
	if err != nil {
		log.Fatal(err)
	}

	var series []fig7Series
	var longstate []bench.LongStateResult
	if want("7b") || want("7c") || want("7d") || *fig == "7" || *compareTo != "" {
		series = runFig7(*sf, *quick, *seed)
	}
	// A longstate baseline forces the longstate run: the gate compares
	// per-row ns/op and the tiered row's absolute invariants. An
	// explicit -backend narrows the shoot-out to that row.
	if want("longstate") || len(baselineLong) > 0 {
		var only []bench.StateConfig
		if flagWasSet("backend") {
			only = []bench.StateConfig{backend}
		}
		longstate = runLongState(*quick, *seed, only...)
	}
	// The skew scenario runs at full scale regardless of -quick: its
	// result counts and imbalance are deterministic in (seed, tuples),
	// so a -compare gate needs the baseline's exact stream length.
	var skewRows []bench.SkewResult
	if want("skew") || len(baselineSkew) > 0 {
		skewRows = runSkew(*seed)
	}
	// Same full-scale rule as skew: the cluster gate compares exact
	// result counts, which are deterministic in (seed, stream length).
	var clusterRows []bench.ClusterBenchResult
	if want("cluster") || len(baselineCluster) > 0 {
		clusterRows = runClusterBench(*seed)
	}
	// Churn plan costs are deterministic in (seed, node budget), so the
	// gate compares them exactly; wall times use the -regress-pct
	// threshold. Quick runs shrink the query counts, so a quick compare
	// only gates the counts present in both.
	var churnRows []bench.ChurnResult
	if want("churn") || len(baselineChurn) > 0 {
		churnRows = runChurn(*quick, *seed)
	}
	if *jsonOut != "" {
		// A written baseline must always carry the Fig. 7 series the
		// -compare gate diffs against — a longstate-only write would
		// silently turn the gate vacuous.
		if series == nil {
			log.Fatal("-json requires the Fig. 7 series; run with -fig 7 or -fig 7,longstate")
		}
		if longstate == nil {
			log.Print("note: no -fig longstate in this run — the baseline's longstate section will be absent")
		}
		if err := writeFig7JSON(*jsonOut, *sf, *seed, series, longstate, skewRows, clusterRows, churnRows); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonOut)
	}
	if *compareTo != "" {
		ok := compareFig7(*compareTo, baseline, series, *regressPct/100)
		if len(baselineLong) > 0 && !compareLongState(baselineLong, longstate, *regressPct/100) {
			ok = false
		}
		if len(baselineSkew) > 0 && !compareSkew(baselineSkew, skewRows, *regressPct/100) {
			ok = false
		}
		if len(baselineCluster) > 0 && !compareCluster(baselineCluster, clusterRows, *regressPct/100) {
			ok = false
		}
		if len(baselineChurn) > 0 && !compareChurn(baselineChurn, churnRows, *regressPct/100) {
			ok = false
		}
		if !ok {
			os.Exit(1)
		}
	}
	if want("overload") {
		runOverload(*quick, *seed)
	}
	if want("simsweep") {
		runSimSweep(*seeds, *quick, *seed, backend)
	}
	if want("chaos") {
		runChaos(*seeds, *quick, *seed)
	}
	if want("8a") {
		runFig8('a', *quick, *seed)
	}
	if want("8b") {
		runFig8('b', *quick, *seed)
	}
	for _, f := range []string{"9a", "9c", "9e"} {
		if want(f) {
			runFig9Cost(f, *quick, *solveTO, *seed)
		}
	}
	if want("9b") || want("9d") {
		fmt.Println("(problem sizes are the vars/probe-orders columns of 9a/9c)")
	}
	if want("9f") {
		runFig9Sizes(*quick, *solveTO, *seed)
	}
	if want("ablation") {
		runAblations(*quick, *solveTO, *seed)
	}
}

func runAblations(quick bool, solveTO time.Duration, seed uint64) {
	nQ := 20
	if quick {
		nQ = 10
	}
	fmt.Println("=== Ablations — design choices of DESIGN.md §5 ===")
	rows, err := bench.Ablations(10, nQ, 3, seed, solveTO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatAblations(rows))
	fmt.Println()

	fmt.Println("=== Skew routing — two-choice vs. single-choice (hot key 80%) ===")
	n := 4000
	if quick {
		n = 1000
	}
	skew, err := bench.SkewAblations(n, 4, 800)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatSkewAblations(skew))
	fmt.Println()
}

// fig7Series is one Fig. 7 run at a fixed query count, as serialized
// into the -json output.
type fig7Series struct {
	Queries int          `json:"queries"`
	Results []fig7Result `json:"results"`
}

// fig7Result is one strategy bar of Figs. 7b–7d in machine-readable
// form; BENCH_fig7.json tracks these across PRs.
type fig7Result struct {
	Strategy      string  `json:"strategy"`
	ThroughputTPS float64 `json:"throughput_tps"`
	MemoryBytes   int64   `json:"memory_bytes"`
	IndexBytes    int64   `json:"index_bytes"`
	AvgLatencyNS  int64   `json:"avg_latency_ns"`
	ProbeTuples   int64   `json:"probe_tuples"`
	ProbeCands    int64   `json:"probe_candidates"`
	ProbeRejects  int64   `json:"probe_filter_rejects"`
	Results       int64   `json:"results"`
	EvictedEpochs int64   `json:"evicted_epochs"`
	Stores        int     `json:"stores"`
	WallTimeNS    int64   `json:"wall_time_ns"`
}

func runFig7(sf float64, quick bool, seed uint64) []fig7Series {
	var series []fig7Series
	for _, nq := range []int{5, 10} {
		if quick && nq == 10 {
			continue
		}
		fmt.Printf("=== Fig. 7b/7c/7d — %d TPC-H queries, SF %g ===\n", nq, sf)
		res, err := bench.Fig7(bench.Fig7Config{SF: sf, NumQueries: nq, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatFig7(res))
		fmt.Println()
		s := fig7Series{Queries: nq}
		for _, r := range res {
			s.Results = append(s.Results, fig7Result{
				Strategy:      string(r.Strategy),
				ThroughputTPS: r.ThroughputTPS,
				MemoryBytes:   r.MemoryBytes,
				IndexBytes:    r.IndexBytes,
				AvgLatencyNS:  r.AvgLatency.Nanoseconds(),
				ProbeTuples:   r.ProbeTuples,
				ProbeCands:    r.Candidates,
				ProbeRejects:  r.FilterRejects,
				Results:       r.Results,
				EvictedEpochs: r.EvictedEpochs,
				Stores:        r.Stores,
				WallTimeNS:    r.WallTime.Nanoseconds(),
			})
		}
		series = append(series, s)
	}
	return series
}

func writeFig7JSON(path string, sf float64, seed uint64, series []fig7Series, longstate []bench.LongStateResult, skew []bench.SkewResult, clusterRows []bench.ClusterBenchResult, churnRows []bench.ChurnResult) error {
	doc := struct {
		Figure    string                     `json:"figure"`
		SF        float64                    `json:"sf"`
		Seed      uint64                     `json:"seed"`
		Series    []fig7Series               `json:"series"`
		LongState []bench.LongStateResult    `json:"longstate,omitempty"`
		Skew      []bench.SkewResult         `json:"skew,omitempty"`
		Cluster   []bench.ClusterBenchResult `json:"cluster,omitempty"`
		Churn     []bench.ChurnResult        `json:"churn,omitempty"`
	}{Figure: "7", SF: sf, Seed: seed, Series: series, LongState: longstate, Skew: skew, Cluster: clusterRows, Churn: churnRows}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runOverload(quick bool, seed uint64) {
	cfg := bench.OverloadConfig{Seed: seed}
	if quick {
		// Shorter stream, proportionally tighter budget: the unbounded
		// substrate must still hit the wall for the comparison to show.
		cfg.Tuples = 8000
		cfg.MemoryLimitBytes = 256 << 10
	}
	fmt.Println("=== Overload survival — execution substrates under one memory budget ===")
	results, err := bench.OverloadSurvival(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatOverload(results))
	fmt.Println()
}

// runLongState drives the state-backend shoot-out (DESIGN.md §10) on
// every row of the state matrix — or only the ones named — and dies on a
// vacuous or inconclusive stage (an EvictFail run that survives its
// budget, a survivor that never evicts, a tiered run that sheds).
func runLongState(quick bool, seed uint64, only ...bench.StateConfig) []bench.LongStateResult {
	cfg := bench.LongStateConfig{Seed: seed}
	if quick {
		cfg.Tuples = 6000
		cfg.PruneWindow = 1024
	}
	fmt.Println("=== Long state — state-backend shoot-out (probe / prune / eviction) ===")
	results, err := bench.LongState(cfg, only...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatLongState(results))
	fmt.Println()
	return results
}

// runSkew drives the degree-aware skew scenario and dies on a vacuous
// run (no split keys declared) or when splitting fails to reduce the
// handled-tuple imbalance; results must match between plans.
func runSkew(seed uint64) []bench.SkewResult {
	fmt.Println("=== Skew — zipf-keyed TPC-H stream: uniform-cost vs degree-aware plan ===")
	rows, err := bench.Skew(bench.SkewConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatSkew(rows))
	fmt.Println()
	return rows
}

// runClusterBench drives the scale-out sweep (DESIGN.md §13) and dies
// when shard counts disagree on results or drops, or when admission
// control never sheds.
func runClusterBench(seed uint64) []bench.ClusterBenchResult {
	fmt.Println("=== Cluster — TPC-H stream across 1/2/4 shards (key-hash routing, token-bucket admission) ===")
	rows, err := bench.ClusterBench(bench.ClusterBenchConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatCluster(rows))
	fmt.Println()
	return rows
}

// runSimSweep drives the deterministic-schedule sweep (DESIGN.md §9)
// and exits non-zero on any seed that deviates from the oracle, any
// replay divergence, or a fault scenario that fails to reproduce.
func runSimSweep(seeds int, quick bool, seed uint64, backend bench.StateConfig) {
	cfg := bench.SimSweepConfig{Seeds: seeds, Seed: seed, State: backend}
	if quick && cfg.Seeds > 8 {
		cfg.Seeds = 8
	}
	fmt.Printf("=== Sim sweep — TPC-H equivalence oracle across %d seeded schedules (%s backend) ===\n", cfg.Seeds, backend.Name)
	res, err := bench.SimSweep(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatSimSweep(res))
	fmt.Println()
}

// chaosOverheadLimitPct is the CI gate on the write-ahead-logging tax:
// journaling every ingest may cost at most this much steady-state
// throughput over the undurable baseline. Checkpoint cost is reported
// alongside but not gated — it is a tunable durability-vs-replay-time
// tradeoff (cadence, epoch granularity), not a fixed ingest-path tax.
const chaosOverheadLimitPct = 10

// runChaos drives the crash-recovery chaos suite (DESIGN.md §11): the
// seeded crash-restart-replay sweep across both state backends with
// task panics and torn WAL tails, plus the WAL-overhead measurement.
// Exits non-zero on any run that is not exactly-once or when the
// durability tax exceeds the gate.
func runChaos(seeds int, quick bool, seed uint64) {
	cfg := bench.ChaosConfig{Seeds: seeds, Seed: seed, Quick: quick}
	fmt.Printf("=== Chaos — crash-restart-replay sweep + durability tax ===\n")
	res, err := bench.Chaos(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatChaos(res))
	fmt.Println()
	if res.OverheadPct > chaosOverheadLimitPct {
		log.Fatalf("write-ahead-logging tax %.1f%% exceeds the %d%% gate", res.OverheadPct, chaosOverheadLimitPct)
	}
}

// readFig7JSON loads a baseline written by -json.
func readFig7JSON(path string) (sf float64, seed uint64, series []fig7Series, longstate []bench.LongStateResult, skew []bench.SkewResult, clusterRows []bench.ClusterBenchResult, churnRows []bench.ChurnResult, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, nil, nil, nil, nil, err
	}
	var doc struct {
		SF        float64                    `json:"sf"`
		Seed      uint64                     `json:"seed"`
		Series    []fig7Series               `json:"series"`
		LongState []bench.LongStateResult    `json:"longstate"`
		Skew      []bench.SkewResult         `json:"skew"`
		Cluster   []bench.ClusterBenchResult `json:"cluster"`
		Churn     []bench.ChurnResult        `json:"churn"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, 0, nil, nil, nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.SF, doc.Seed, doc.Series, doc.LongState, doc.Skew, doc.Cluster, doc.Churn, nil
}

// runChurn drives the incremental re-optimization sweep; the bench
// itself dies when the incremental plan ever costs more than scratch.
func runChurn(quick bool, seed uint64) []bench.ChurnResult {
	nQs := []int{100, 500, 1000}
	if quick {
		nQs = []int{50, 100}
	}
	fmt.Println("=== Churn — re-optimization under query churn: scratch vs incremental ===")
	rows, err := bench.Churn(bench.ChurnConfig{Seed: seed}, nQs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatChurn(rows))
	fmt.Println()
	return rows
}

// compareChurn gates the incremental re-optimizer against the
// baseline: plan costs are deterministic in (seed, node budget) and
// must match exactly for both arms; optimizer wall time may not
// regress beyond the threshold. A quick run carries fewer query
// counts, so only counts present in both sides are gated.
func compareChurn(baseline, current []bench.ChurnResult, threshold float64) bool {
	baseOf := map[int]bench.ChurnResult{}
	for _, r := range baseline {
		baseOf[r.NQ] = r
	}
	regressions := 0
	compared := 0
	for _, r := range current {
		b, ok := baseOf[r.NQ]
		if !ok {
			fmt.Printf("(no churn baseline for %d queries — skipped)\n", r.NQ)
			continue
		}
		compared++
		if r.ScratchCost != b.ScratchCost || r.IncrementalCost != b.IncrementalCost {
			regressions++
			fmt.Printf("REGRESSION  churn nQ=%-4d plan cost scratch %g -> %g, incremental %g -> %g (plan drift!)\n",
				r.NQ, b.ScratchCost, r.ScratchCost, b.IncrementalCost, r.IncrementalCost)
		}
		if b.IncrementalWall > 0 {
			if d := float64(r.IncrementalWall-b.IncrementalWall) / float64(b.IncrementalWall); d > threshold {
				regressions++
				fmt.Printf("REGRESSION  churn nQ=%-4d incremental wall %+.1f%%\n", r.NQ, d*100)
			}
		}
	}
	if compared == 0 {
		fmt.Println("GATE FAILURE: baseline has a churn section but no query count matched the current run")
		return false
	}
	if regressions > 0 {
		fmt.Printf("%d churn regression(s)\n", regressions)
		return false
	}
	fmt.Println("churn: no regressions")
	return true
}

// compareCluster gates the scale-out scenario against the baseline:
// result counts and admission drops are deterministic in (seed, stream
// length) and must match exactly; per-tuple ingest cost and routing
// imbalance may not regress beyond the threshold.
func compareCluster(baseline, current []bench.ClusterBenchResult, threshold float64) bool {
	baseOf := map[int]bench.ClusterBenchResult{}
	for _, r := range baseline {
		baseOf[r.Shards] = r
	}
	regressions := 0
	compared := 0
	for _, r := range current {
		b, ok := baseOf[r.Shards]
		if !ok {
			fmt.Printf("(no cluster baseline for %d shards — skipped)\n", r.Shards)
			continue
		}
		compared++
		if r.Results != b.Results {
			regressions++
			fmt.Printf("REGRESSION  cluster n=%-2d result count %d -> %d (correctness drift!)\n", r.Shards, b.Results, r.Results)
		}
		if r.AdmissionDrops != b.AdmissionDrops {
			regressions++
			fmt.Printf("REGRESSION  cluster n=%-2d admission drops %d -> %d (front-door drift!)\n", r.Shards, b.AdmissionDrops, r.AdmissionDrops)
		}
		if b.IngestNsPerTuple > 0 {
			if d := (r.IngestNsPerTuple - b.IngestNsPerTuple) / b.IngestNsPerTuple; d > threshold {
				regressions++
				fmt.Printf("REGRESSION  cluster n=%-2d ingest ns/tuple %+.1f%%\n", r.Shards, d*100)
			}
		}
		if b.Imbalance > 0 {
			if d := (r.Imbalance - b.Imbalance) / b.Imbalance; d > threshold {
				regressions++
				fmt.Printf("REGRESSION  cluster n=%-2d imbalance %+.1f%%\n", r.Shards, d*100)
			}
		}
	}
	if compared == 0 {
		fmt.Println("GATE FAILURE: baseline has a cluster section but no shard count matched the current run")
		return false
	}
	if regressions > 0 {
		fmt.Printf("%d cluster regression(s)\n", regressions)
		return false
	}
	fmt.Println("cluster: no regressions")
	return true
}

// flagWasSet reports whether the named flag was passed explicitly on
// the command line (as opposed to sitting at its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// compareLongState gates the state-backend shoot-out against the
// baseline. Alloc counts are deterministic and must not grow; probe,
// prune, and cold-probe ns/op may not regress beyond the threshold.
// The tiered row's lossless invariants — zero evictions in both
// the eviction stage and the 10×-window stage — are gated absolutely,
// regardless of what the baseline recorded.
func compareLongState(baseline, current []bench.LongStateResult, threshold float64) bool {
	baseOf := map[string]bench.LongStateResult{}
	for _, r := range baseline {
		baseOf[r.Backend] = r
	}
	regressions := 0
	compared := 0
	for _, r := range current {
		if r.Backend == "tiered" {
			if r.EvictedEpochs != 0 || r.EvictedTuples != 0 {
				regressions++
				fmt.Printf("REGRESSION  longstate tiered evicted %d epochs / %d tuples — must demote, never shed\n", r.EvictedEpochs, r.EvictedTuples)
			}
			if r.Tiered != nil && r.Tiered.EvictedTuples != 0 {
				regressions++
				fmt.Printf("REGRESSION  longstate tiered 10x stage evicted %d tuples\n", r.Tiered.EvictedTuples)
			}
		}
		b, ok := baseOf[r.Backend]
		if !ok {
			fmt.Printf("(no longstate baseline for backend %s — skipped)\n", r.Backend)
			continue
		}
		compared++
		if r.ProbeAllocsOp > b.ProbeAllocsOp {
			regressions++
			fmt.Printf("REGRESSION  longstate %-9s probe allocs/op %d -> %d\n", r.Backend, b.ProbeAllocsOp, r.ProbeAllocsOp)
		}
		if r.PruneAllocsOp > b.PruneAllocsOp {
			regressions++
			fmt.Printf("REGRESSION  longstate %-9s prune allocs/op %d -> %d\n", r.Backend, b.PruneAllocsOp, r.PruneAllocsOp)
		}
		if b.ProbeNsOp > 0 {
			if d := float64(r.ProbeNsOp-b.ProbeNsOp) / float64(b.ProbeNsOp); d > threshold {
				regressions++
				fmt.Printf("REGRESSION  longstate %-9s probe ns/op %+.1f%%\n", r.Backend, d*100)
			}
		}
		if b.PruneNsOp > 0 {
			if d := float64(r.PruneNsOp-b.PruneNsOp) / float64(b.PruneNsOp); d > threshold {
				regressions++
				fmt.Printf("REGRESSION  longstate %-9s prune ns/op %+.1f%%\n", r.Backend, d*100)
			}
		}
		if b.Tiered != nil && r.Tiered != nil && b.Tiered.ColdProbeNsOp > 0 {
			if d := float64(r.Tiered.ColdProbeNsOp-b.Tiered.ColdProbeNsOp) / float64(b.Tiered.ColdProbeNsOp); d > threshold {
				regressions++
				fmt.Printf("REGRESSION  longstate tiered cold probe ns/op %+.1f%%\n", d*100)
			}
		}
	}
	if compared == 0 {
		fmt.Println("GATE FAILURE: baseline has a longstate section but no backend matched the current run")
		return false
	}
	if regressions > 0 {
		fmt.Printf("%d longstate regression(s)\n", regressions)
		return false
	}
	fmt.Println("longstate: no regressions")
	return true
}

// compareSkew gates the skew scenario against the baseline: result
// counts are deterministic in (seed, stream length) and must match
// exactly; the degree-aware plan's imbalance and per-tuple probe time
// may not regress beyond the threshold.
func compareSkew(baseline, current []bench.SkewResult, threshold float64) bool {
	baseOf := map[string]bench.SkewResult{}
	for _, r := range baseline {
		baseOf[r.Plan] = r
	}
	regressions := 0
	compared := 0
	for _, r := range current {
		b, ok := baseOf[r.Plan]
		if !ok {
			fmt.Printf("(no skew baseline for plan %s — skipped)\n", r.Plan)
			continue
		}
		compared++
		if r.Results != b.Results {
			regressions++
			fmt.Printf("REGRESSION  skew %-13s result count %d -> %d (correctness drift!)\n", r.Plan, b.Results, r.Results)
		}
		if r.SplitKeys != b.SplitKeys {
			regressions++
			fmt.Printf("REGRESSION  skew %-13s split_keys %d -> %d (plan drift!)\n", r.Plan, b.SplitKeys, r.SplitKeys)
		}
		if b.Imbalance > 0 {
			if d := (r.Imbalance - b.Imbalance) / b.Imbalance; d > threshold {
				regressions++
				fmt.Printf("REGRESSION  skew %-13s imbalance %+.1f%%\n", r.Plan, d*100)
			}
		}
		if b.ProbeNsPerTuple > 0 {
			if d := (r.ProbeNsPerTuple - b.ProbeNsPerTuple) / b.ProbeNsPerTuple; d > threshold {
				regressions++
				fmt.Printf("REGRESSION  skew %-13s probe ns/tuple %+.1f%%\n", r.Plan, d*100)
			}
		}
	}
	if compared == 0 {
		fmt.Println("GATE FAILURE: baseline has a skew section but no plan matched the current run")
		return false
	}
	if regressions > 0 {
		fmt.Printf("%d skew regression(s)\n", regressions)
		return false
	}
	fmt.Println("skew: no regressions")
	return true
}

// compareFig7 diffs the current Fig. 7 run against the baseline and
// reports whether the run is regression-free. Deterministic work
// metrics (probe tuples, memory, result counts) and the wall-clock
// throughput are gated at the threshold; latency is reported but not
// gated (it is wall-clock noise at bench scale).
func compareFig7(path string, baseline, current []fig7Series, threshold float64) bool {
	baseOf := map[int]map[string]fig7Result{}
	for _, s := range baseline {
		m := map[string]fig7Result{}
		for _, r := range s.Results {
			m[r.Strategy] = r
		}
		baseOf[s.Queries] = m
	}

	fmt.Printf("=== Comparison against %s (threshold %.0f%%) ===\n", path, threshold*100)
	regressions := 0
	compared := 0
	// worse flags metric regressions: delta is the fractional change in
	// the "bad" direction (positive = regressed).
	check := func(queries int, strategy, metric string, delta float64) {
		if delta <= threshold {
			return
		}
		regressions++
		fmt.Printf("REGRESSION  q=%-3d %-5s %-14s %+.1f%%\n", queries, strategy, metric, delta*100)
	}
	for _, s := range current {
		base, ok := baseOf[s.Queries]
		if !ok {
			fmt.Printf("(no baseline series for %d queries — skipped)\n", s.Queries)
			continue
		}
		for _, r := range s.Results {
			b, ok := base[r.Strategy]
			if !ok {
				fmt.Printf("(no baseline for strategy %s — skipped)\n", r.Strategy)
				continue
			}
			compared++
			if b.ThroughputTPS > 0 {
				check(s.Queries, r.Strategy, "throughput", (b.ThroughputTPS-r.ThroughputTPS)/b.ThroughputTPS)
			}
			if b.MemoryBytes > 0 {
				check(s.Queries, r.Strategy, "memory", float64(r.MemoryBytes-b.MemoryBytes)/float64(b.MemoryBytes))
			}
			if b.ProbeTuples > 0 {
				check(s.Queries, r.Strategy, "probe_tuples", float64(r.ProbeTuples-b.ProbeTuples)/float64(b.ProbeTuples))
			}
			if r.Results != b.Results {
				regressions++
				fmt.Printf("REGRESSION  q=%-3d %-5s result count %d -> %d (correctness drift!)\n",
					s.Queries, r.Strategy, b.Results, r.Results)
			}
			// Absolute gate, not a relative one: the Fig. 7 workload
			// fits in memory, so ANY eviction means the state budget
			// or its accounting broke.
			if r.EvictedEpochs != 0 {
				regressions++
				fmt.Printf("REGRESSION  q=%-3d %-5s evicted_epochs %d, want 0 (state budget misfiring!)\n",
					s.Queries, r.Strategy, r.EvictedEpochs)
			}
			if b.AvgLatencyNS > 0 {
				d := float64(r.AvgLatencyNS-b.AvgLatencyNS) / float64(b.AvgLatencyNS)
				if d > threshold {
					fmt.Printf("note        q=%-3d %-5s latency %+.1f%% (not gated)\n", s.Queries, r.Strategy, d*100)
				}
			}
		}
	}
	// A gate that compared nothing is a broken gate, not a green one
	// (empty baseline, mismatched query counts, strategy drift).
	if compared == 0 {
		fmt.Println("GATE FAILURE: no strategy of the current run found a baseline to compare against")
		return false
	}
	if regressions == 0 {
		fmt.Println("no regressions")
		return true
	}
	fmt.Printf("%d regression(s) beyond %.0f%%\n", regressions, threshold*100)
	return false
}

func runFig8(variant byte, quick bool, seed uint64) {
	cfg := bench.Fig8Config{Seed: seed}
	if quick {
		cfg.Before, cfg.After = time.Second, time.Second
		cfg.Rate = 1000
	}
	fmt.Printf("=== Fig. 8%c — adaptive vs static latency ===\n", variant)
	adaptive, err := bench.Fig8(variant, true, cfg)
	if err != nil {
		log.Fatal(err)
	}
	static, err := bench.Fig8(variant, false, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatFig8(adaptive, static))
	fmt.Println()
}

func runFig9Cost(fig string, quick bool, solveTO time.Duration, seed uint64) {
	nQs := []int{20, 40, 60, 80, 100}
	if quick {
		nQs = []int{20, 40}
	}
	cfg := bench.Fig9Config{Seed: seed, SolveLimit: solveTO}
	switch fig {
	case "9a":
		cfg.Relations = 10
		fmt.Println("=== Fig. 9a/9b — probe cost & problem size, 10 input relations ===")
	case "9c":
		cfg.Relations = 100
		fmt.Println("=== Fig. 9c/9d — probe cost & problem size, 100 input relations ===")
	case "9e":
		cfg.Relations = 100
		fmt.Println("=== Fig. 9e — optimization runtime, 100 input relations ===")
	}
	points, err := bench.Fig9Cost(cfg, nQs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatFig9Cost(points))
	fmt.Println()
}

func runFig9Sizes(quick bool, solveTO time.Duration, seed uint64) {
	sizes := []int{3, 4, 5}
	nQs := []int{10, 20, 30}
	cfg := bench.Fig9Config{Relations: 100, Seed: seed, SolveLimit: solveTO, CapCandidates: 24}
	if quick {
		sizes = []int{3, 4}
		nQs = []int{10}
	}
	fmt.Println("=== Fig. 9f — optimization runtime by query size, 100 input relations ===")
	points, err := bench.Fig9QuerySizes(cfg, sizes, nQs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatFig9Sizes(points))
	fmt.Println()
}
