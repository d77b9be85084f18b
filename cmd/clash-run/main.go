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
	"os"
	"strings"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/runtime"
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

	shared := true
	var plans []*core.Plan
	switch strings.ToLower(*strategy) {
	case "cmqo":
		var p *core.Plan
		p, err = fx.Joint()
		plans = []*core.Plan{p}
	case "fs", "ss":
		plans, err = fx.Individual()
	case "fi", "si":
		shared = false
		plans, err = fx.Individual()
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		for _, p := range plans {
			fmt.Print(p)
		}
	}
	topo, err := fx.Compile(shared, plans...)
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		fmt.Print(topo)
	}
	fmt.Printf("topology: %d stores, %d tasks\n", len(topo.Stores), topo.TotalTasks())

	m, wall, err := run(fx, topo)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nprocessed %d tuples in %v (%.0f t/s)\n", m.Ingested, wall.Round(time.Millisecond),
		float64(m.Ingested)/wall.Seconds())
	fmt.Printf("probe tuples sent: %d, stored: %d (%.2f MiB)\n", m.ProbeSent, m.Stored,
		float64(m.StoreBytes)/(1<<20))
	fmt.Printf("results: %d (avg latency %v)\n", m.Results, m.AvgLatency.Round(time.Microsecond))
	for q, n := range m.ByQuery {
		fmt.Printf("  %s: %d results\n", q, n)
	}
}

// run ingests the fixture's records into an engine running topo and
// returns its counters and the wall time of ingest and drain. The engine
// is synchronous, as in clash-bench -fig 7: every ingested tuple's whole
// probe chain completes before the next one arrives, so the result
// counts are exact and match the symmetric join's.
func run(fx *tpch.Fixture, topo *topology.Config) (runtime.Snapshot, time.Duration, error) {
	eng := runtime.New(runtime.Config{Catalog: fx.Catalog, Synchronous: true})
	defer eng.Stop()
	if err := eng.Install(topo, 0); err != nil {
		return runtime.Snapshot{}, 0, err
	}
	start := time.Now()
	for _, r := range fx.Records {
		if err := eng.Ingest(r.Relation, r.TS, r.Vals...); err != nil {
			return runtime.Snapshot{}, 0, err
		}
	}
	eng.Drain()
	return eng.Metrics().Snapshot(), time.Since(start), nil
}
