// Command clash-bench regenerates the paper's evaluation figures. Each
// -fig value prints the series the corresponding figure plots:
//
//	7b, 7c, 7d — multi-query performance on TPC-H (throughput, memory,
//	             latency) for FI/SI/FS/SS/CMQO with 5 and 10 queries
//	8a, 8b     — adaptive vs. static latency over time under changing
//	             data characteristics
//	9a..9f     — ILP probe-cost savings, problem sizes, and runtimes
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
// candidates, memory, stores, results, plan cost) repeat on any
// machine; a figure that finds its own arms disagreeing on an exact
// invariant exits non-zero. The clock columns (throughput, latency,
// wall) are printed and never compared, here or in CI: timings
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
var figures = []string{"7b", "7c", "7d", "8a", "8b", "9a", "9b", "9c", "9d", "9e", "9f", "ablation"}

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
		fig   = flag.String("fig", "all", "comma-separated figures to print (7, 8, 9, all, "+strings.Join(figures, ", ")+")")
		sf    = flag.Float64("sf", 0.002, "TPC-H scale factor for Fig. 7")
		quick = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
		seed  = flag.Uint64("seed", 42, "workload seed")
	)
	flag.Parse()

	want, err := parseFigures(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clash-bench:", err)
		os.Exit(2)
	}

	if want["7b"] || want["7c"] || want["7d"] {
		runFig7(*sf, *quick, *seed)
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
