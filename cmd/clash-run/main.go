// Command clash-run executes a workload of continuous queries over a
// generated TPC-H stream on the CLASH runtime and reports metrics.
//
// Usage:
//
//	clash-run -queries 5 -sf 0.002 -strategy cmqo
//	clash-run -workload my.txt -sf 0.01
//
// With -workload, queries must reference TPC-H tables (region, nation,
// supplier, customer, part, partsupp, orders, lineitem).
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"clash/internal/bench"
	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/topology"
	"clash/internal/tpch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clash-run: ")
	var (
		workloadPath = flag.String("workload", "", "workload file over TPC-H tables (default: Fig. 7a queries)")
		numQueries   = flag.Int("queries", 5, "use the paper's 5- or 10-query TPC-H workload")
		sf           = flag.Float64("sf", 0.002, "TPC-H scale factor")
		strategy     = flag.String("strategy", "cmqo", "fi|si|fs|ss|cmqo")
		parallelism  = flag.Int("parallelism", 2, "store parallelism")
		seed         = flag.Uint64("seed", 42, "generator seed")
		verbose      = flag.Bool("v", false, "print the plan and topology")
	)
	flag.Parse()

	var queries []*query.Query
	if *workloadPath != "" {
		b, err := os.ReadFile(*workloadPath)
		if err != nil {
			log.Fatal(err)
		}
		queries, _, err = query.ParseWorkload(string(b))
		if err != nil {
			log.Fatal(err)
		}
		full := tpch.Catalog()
		for _, q := range queries {
			if err := full.Validate(q); err != nil {
				log.Fatalf("workload must use TPC-H tables: %v", err)
			}
		}
	} else if *numQueries >= 10 {
		queries = tpch.Fig7TenQueries()
	} else {
		queries = tpch.Fig7Queries()
	}
	fmt.Printf("generating TPC-H data at SF %g ...\n", *sf)
	fx, err := tpch.NewFixture(queries, *sf, *seed, *parallelism)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d records\n", len(fx.Records))

	s := bench.Strategy(strings.ToUpper(*strategy))
	if !slices.Contains(bench.Strategies(), s) {
		log.Fatalf("unknown strategy %q", *strategy)
	}
	plans, topo, err := deploy(fx, s)
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		for _, p := range plans {
			fmt.Print(p)
		}
		fmt.Print(topo)
	}
	fmt.Printf("topology: %d stores, %d tasks\n", len(topo.Stores), topo.TotalTasks())

	m, wall, err := bench.RunStrategy(fx, s, topo)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nprocessed %d tuples in %v (%.0f t/s)\n", m.Ingested, wall.Round(time.Millisecond),
		float64(m.Ingested)/wall.Seconds())
	fmt.Printf("probe tuples sent: %d, stored: %d (%.2f MiB)\n", m.ProbeSent, m.Stored,
		float64(m.StoreBytes)/(1<<20))
	fmt.Printf("results: %d (avg latency %v)\n", m.Results, m.AvgLatency.Round(time.Microsecond))
	for _, q := range slices.Sorted(maps.Keys(m.ByQuery)) {
		fmt.Printf("  %s: %d results\n", q, m.ByQuery[q])
	}
}

// deploy solves the plans strategy s deploys and compiles them: the
// joint plan for CMQO, per-query plans otherwise, sharing stores and
// prefixes for FS and SS. The engine then runs as in clash-bench -fig 7
// (bench.RunStrategy), so the counts are exact and match its row.
func deploy(fx *tpch.Fixture, s bench.Strategy) ([]*core.Plan, *topology.Config, error) {
	var plans []*core.Plan
	if s == bench.CLASHMQO {
		p, err := fx.Joint()
		if err != nil {
			return nil, nil, err
		}
		plans = []*core.Plan{p}
	} else {
		var err error
		if plans, err = fx.Individual(); err != nil {
			return nil, nil, err
		}
	}
	shared := s == bench.CLASHMQO || s == bench.FlinkShared || s == bench.StormShared
	topo, err := fx.Compile(shared, plans...)
	return plans, topo, err
}
