// Command clash-opt optimizes a workload of multi-way stream join
// queries and prints the materializable intermediate results, the chosen
// probe orders, the store partitioning, and the compiled topology.
//
// Usage:
//
//	clash-opt -workload workload.txt [-rate 100] [-parallelism 4] [-individual]
//	echo "q1: R(a) S(a,b) T(b)" | clash-opt
//
// Workload files contain one query per line in the paper's notation,
// e.g. "q1: R(a) S(a,b) T(b)"; '#' starts a comment.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"clash/internal/core"
	"clash/internal/mir"
	"clash/internal/query"
	"clash/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clash-opt: ")
	var (
		workloadPath = flag.String("workload", "", "workload file (default: stdin)")
		rate         = flag.Float64("rate", 100, "assumed arrival rate per relation (tuples/s)")
		defaultSel   = flag.Float64("sel", 0.01, "assumed selectivity for every predicate")
		parallelism  = flag.Int("parallelism", 4, "store parallelism")
		individual   = flag.Bool("individual", false, "optimize each query in isolation")
		noMIRs       = flag.Bool("no-mirs", false, "disable materialized intermediate results")
		noPart       = flag.Bool("no-partitioning", false, "disable partition decorations")
		showTopo     = flag.Bool("topology", true, "print the compiled topology")
		showMIRs     = flag.Bool("mirs", true, "print the enumerated MIRs")
	)
	flag.Parse()

	text, err := readWorkload(*workloadPath)
	if err != nil {
		log.Fatal(err)
	}
	queries, cat, err := query.ParseWorkload(text)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d queries over %d relations: %v\n\n", len(queries), cat.Len(), cat.Names())

	est := stats.NewEstimates(*defaultSel)
	for _, name := range cat.Names() {
		est.SetRate(name, *rate)
	}

	if *showMIRs {
		fmt.Println("materializable intermediate results:")
		for _, m := range mir.Enumerate(queries) {
			cands := mir.PartitionCandidates(m, queries)
			fmt.Printf("  %-8s %-40s partition candidates: %v\n", m.Label(), m.Key(), cands)
		}
		fmt.Println()
	}

	opts := core.Options{
		StoreParallelism:    *parallelism,
		DisableMIRs:         *noMIRs,
		DisablePartitioning: *noPart,
	}
	o := core.NewOptimizer(opts)

	var plans []*core.Plan
	if *individual {
		plans, err = o.OptimizeIndividually(queries, est)
		if err != nil {
			log.Fatal(err)
		}
		total := 0.0
		for _, p := range plans {
			fmt.Print(p)
			total += p.Objective
		}
		fmt.Printf("\ntotal individual probe cost: %.4g\n", total)
	} else {
		plan, err := o.Optimize(queries, est)
		if err != nil {
			log.Fatal(err)
		}
		plans = []*core.Plan{plan}
		fmt.Print(plan)
		s := plan.Stats
		fmt.Printf("\nILP: %d variables, %d constraints, %d probe orders, %d MIRs\n",
			s.Variables, s.Constraints, s.ProbeOrders, s.MIRs)
		fmt.Printf("build %v, warm start %v, solve %v (%d nodes, %s)\n", s.BuildTime, s.WarmStartTime, s.SolveTime, s.Nodes, s.Status)
	}

	if *showTopo {
		topo, err := core.Compile(plans, core.CompileOptions{Shared: !*individual, Parallelism: *parallelism})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(topo)
	}
}

func readWorkload(path string) (string, error) {
	if path == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
