// Command clash-bench regenerates the paper's evaluation figures. Each
// -fig value prints the series the corresponding figure plots:
//
//	7b, 7c, 7d — multi-query performance on TPC-H (throughput, memory,
//	             latency) for FI/SI/FS/SS/CMQO with 5 and 10 queries
//	8a, 8b     — adaptive vs. static latency over time under changing
//	             data characteristics
//	9a..9f     — ILP probe-cost savings, problem sizes, and runtimes
//	overload   — overload survival on the flow substrate: a credit
//	             grant the stream cannot exhaust buffers until the
//	             memory budget kills the engine, while a bounded grant
//	             degrades gracefully (flow-block throttles the source,
//	             flow-shed drops counted tuples)
//	simsweep   — deterministic-schedule sweep: the TPC-H multi-query
//	             equivalence oracle across -seeds seeded interleavings
//	             on the simulation substrate, with same-seed replay
//	             verification and an injected-fault scenario (source
//	             hiccup under flow control) replayed from its seed;
//	             -backend selects the state backend of the sim runs
//	longstate  — state-backend shoot-out on a long-state workload:
//	             per-backend probe/prune ns+allocs, resident/heap
//	             bytes, and the bounded-memory eviction stage (the
//	             budget as MemoryLimitBytes dies, as StateLimitBytes
//	             survives by shedding epochs)
//	skew       — zipf-keyed TPC-H stream under a uniform-cost vs a
//	             degree-aware plan: the degree sketches let the
//	             optimizer split heavy-hitter keys across two tasks,
//	             and the handled-tuple imbalance (max/mean) must drop
//	             while results stay identical
//	cluster    — scale-out: the TPC-H orders ⋈ lineitem stream through
//	             the cluster front door at 1/2/4 shards (key-hash
//	             routing + token-bucket admission); reports ingest
//	             throughput, routing imbalance, and admission drops,
//	             with result count and drops required identical across
//	             shard counts
//	churn      — incremental re-optimization: Fig. 9-regime query churn
//	             at 100/500/1000 queries, re-optimizing every step from
//	             scratch vs with cross-churn state (incumbent warm
//	             start, MIR memo, candidate-structure cache); reports
//	             optimizer wall time, BnB nodes explored, memo hit
//	             rate, and plan cost per arm, with incremental cost
//	             required ≤ scratch at every step; then the same
//	             churn in the engine's regime (partition consistency
//	             on, new estimates and two solves per step), which
//	             dies unless the warm start's incumbent repair holds,
//	             and the ReoptStats counters of every arm
//	chaos      — crash-recovery chaos suite: -seeds crash-restart-replay
//	             runs per state configuration (task panics + torn WAL
//	             tails active), each byte-compared against an
//	             uninterrupted oracle
//	ablation   — the design choices of DESIGN.md §5 switched off one at
//	             a time
//	all        — everything (the default)
//
// 7, 8 and 9 are shorthands for all panels of a figure; any other name
// is an error. Scale knobs (-sf, -quick) trade fidelity for wall time;
// the defaults finish in a few minutes on a laptop.
//
// clash-bench is a printer. Every solve behind a figure is bounded by a
// node count, so the plans and the count columns (probe tuples,
// candidates, memory, stores, results, drops, plan cost) repeat on any
// machine; a figure that finds its own arms disagreeing on an exact
// invariant exits non-zero. The clock columns (throughput, latency,
// ns/op, wall) are printed and never compared, here or in CI: timings
// are judged by benchmark/ (BENCHMARK.json), which corrects for the
// machine and bounds each metric.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"clash/internal/bench"
)

// figures lists every -fig name in help order; the shorthands 7, 8, 9
// and all expand to them.
var figures = []string{"7b", "7c", "7d", "8a", "8b", "9a", "9b", "9c", "9d", "9e", "9f",
	"overload", "simsweep", "longstate", "skew", "cluster", "churn", "chaos", "ablation"}

// parseFigures expands a comma-separated -fig value into the set of
// figures to run. Names match exactly (case-insensitively); "7", "8"
// and "9" select every panel of the figure and "all" everything.
func parseFigures(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(spec, ",") {
		f = strings.ToLower(strings.TrimSpace(f))
		matched := false
		for _, name := range figures {
			if f == name || f == "all" || (f == "7" || f == "8" || f == "9") && strings.HasPrefix(name, f) {
				want[name] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("unknown figure %q (want one of 7, 8, 9, all, %s)", f, strings.Join(figures, ", "))
		}
	}
	return want, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("clash-bench: ")
	var (
		fig      = flag.String("fig", "all", "comma-separated figures to print (7, 8, 9, all, "+strings.Join(figures, ", ")+")")
		sf       = flag.Float64("sf", 0.002, "TPC-H scale factor for Fig. 7")
		quick    = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
		seed     = flag.Uint64("seed", 42, "workload seed")
		seeds    = flag.Int("seeds", 16, "schedule seeds for -fig simsweep, crash seeds for -fig chaos")
		backendF = flag.String("backend", "container", "state-matrix row for the -fig simsweep runs, and filter for -fig longstate (container|columnar|tiered; tiered = columnar under a hot budget)")
	)
	flag.Parse()

	want, err := parseFigures(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clash-bench:", err)
		os.Exit(2)
	}
	backend, err := bench.ParseBackend(*backendF)
	if err != nil {
		log.Fatal(err)
	}

	if want["7b"] || want["7c"] || want["7d"] {
		runFig7(*sf, *quick, *seed)
	}
	if want["longstate"] {
		// An explicit -backend narrows the shoot-out to that row.
		var only []bench.StateConfig
		if flagWasSet("backend") {
			only = []bench.StateConfig{backend}
		}
		runLongState(*quick, *seed, only...)
	}
	if want["skew"] {
		runSkew(*seed)
	}
	if want["cluster"] {
		runClusterBench(*seed)
	}
	if want["churn"] {
		runChurn(*quick, *seed)
	}
	if want["overload"] {
		runOverload(*quick, *seed)
	}
	if want["simsweep"] {
		runSimSweep(*seeds, *quick, *seed, backend)
	}
	if want["chaos"] {
		runChaos(*seeds, *quick)
	}
	if want["8a"] {
		runFig8('a', *quick, *seed)
	}
	if want["8b"] {
		runFig8('b', *quick, *seed)
	}
	for _, f := range []string{"9a", "9c", "9e"} {
		if want[f] {
			runFig9Cost(f, *quick, *seed)
		}
	}
	if want["9b"] || want["9d"] {
		fmt.Println("(problem sizes are the vars/probe-orders columns of 9a/9c)")
	}
	if want["9f"] {
		runFig9Sizes(*quick, *seed)
	}
	if want["ablation"] {
		runAblations(*quick, *seed)
	}
}

func runAblations(quick bool, seed uint64) {
	nQ := 20
	if quick {
		nQ = 10
	}
	fmt.Println("=== Ablations — design choices of DESIGN.md §5 ===")
	rows, err := bench.Ablations(10, nQ, 3, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatAblations(rows))
	fmt.Println()
}

func runFig7(sf float64, quick bool, seed uint64) {
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
	}
}

func runOverload(quick bool, seed uint64) {
	cfg := bench.OverloadConfig{Seed: seed}
	if quick {
		// Shorter stream, proportionally tighter budget: the unexhaustible
		// grant must still hit the wall for the comparison to show.
		cfg.Tuples = 8000
		cfg.MemoryLimitBytes = 256 << 10
	}
	fmt.Println("=== Overload survival — flow credit grants under one memory budget ===")
	results, err := bench.OverloadSurvival(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatOverload(results))
	fmt.Println()
}

// runLongState drives the state-backend shoot-out (DESIGN.md §10) on
// every row of the state matrix — or only the ones named — and dies on a
// vacuous or inconclusive stage (a MemoryLimitBytes run that survives
// its budget, a StateLimitBytes survivor that never evicts, a tiered run
// that sheds).
func runLongState(quick bool, seed uint64, only ...bench.StateConfig) {
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
}

// runSkew drives the degree-aware skew scenario and dies on a vacuous
// run (no split keys declared) or when splitting fails to reduce the
// handled-tuple imbalance; results must match between plans.
func runSkew(seed uint64) {
	fmt.Println("=== Skew — zipf-keyed TPC-H stream: uniform-cost vs degree-aware plan ===")
	rows, err := bench.Skew(bench.SkewConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatSkew(rows))
	fmt.Println()
}

// runClusterBench drives the scale-out sweep (DESIGN.md §13) and dies
// when shard counts disagree on results or drops, or when admission
// control never sheds.
func runClusterBench(seed uint64) {
	fmt.Println("=== Cluster — TPC-H stream across 1/2/4 shards (key-hash routing, token-bucket admission) ===")
	rows, err := bench.ClusterBench(bench.ClusterBenchConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatCluster(rows))
	fmt.Println()
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

// runChaos drives the crash-recovery chaos suite (DESIGN.md §11): the
// seeded crash-restart-replay sweep across every state configuration
// with task panics and torn WAL tails. Exits non-zero on any run that
// is not exactly-once.
func runChaos(seeds int, quick bool) {
	fmt.Printf("=== Chaos — crash-restart-replay sweep ===\n")
	res, err := bench.Chaos(bench.ChaosConfig{Seeds: seeds, Quick: quick})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatChaos(res))
	fmt.Println()
}

// runChurn drives the incremental re-optimization sweep and its
// engine-regime arm; the bench itself dies when the incremental plan ever
// costs more than scratch, or when the engine-regime arm finds the warm
// start's incumbent repair failing or a free solve missing the
// candidate-structure cache beyond the changed query's neighbours.
func runChurn(quick bool, seed uint64) {
	nQs := []int{100, 500, 1000}
	engineNQs := []int{24, 100}
	if quick {
		nQs = []int{50, 100}
		engineNQs = []int{24}
	}
	fmt.Println("=== Churn — re-optimization under query churn: scratch vs incremental ===")
	rows, err := bench.Churn(bench.ChurnConfig{Seed: seed}, nQs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatChurn(rows))
	fmt.Println()

	fmt.Println("=== Churn, the engine's regime — partition consistency on, a fresh estimates snapshot and two solves (free, then mature MIRs only) per step ===")
	var engine []bench.ChurnEngineResult
	for _, nQ := range engineNQs {
		// The query-churn workload's shape: 40 relations, 2 000 nodes a solve.
		r, err := bench.ChurnEngineRegime(bench.ChurnConfig{Seed: seed, Relations: 40, Steps: 20, MaxNodes: 2000}, nQ)
		if err != nil {
			log.Fatal(err)
		}
		engine = append(engine, r)
	}
	fmt.Print(bench.FormatChurnEngine(engine))
	fmt.Println()
	fmt.Print(bench.FormatReoptStats(rows, engine))
	fmt.Println()
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

func runFig9Cost(fig string, quick bool, seed uint64) {
	nQs := []int{20, 40, 60, 80, 100}
	if quick {
		nQs = []int{20, 40}
	}
	cfg := bench.Fig9Config{Seed: seed}
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

func runFig9Sizes(quick bool, seed uint64) {
	sizes := []int{3, 4, 5}
	nQs := []int{10, 20, 30}
	cfg := bench.Fig9Config{Relations: 100, Seed: seed, CapCandidates: 24}
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
