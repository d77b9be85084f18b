package bench

// Cluster benchmark: the TPC-H orders ⋈ lineitem stream driven through
// the cluster front door at 1, 2, and 4 shards. The plan keys both
// relations on the order key, so every tuple lands on exactly one shard
// and the per-shard state and probe work shrink with the shard count.
// Reported per shard count: front-door ingest throughput, routing
// imbalance (max/mean routed tuples per shard), admission drops at the
// token bucket, and the result count — which must be identical across
// shard counts (scale-out changes placement, never the answer; the
// admitted subset is a deterministic function of event time alone).

import (
	"fmt"
	"strings"
	"time"

	"clash/internal/cluster"
	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/tpch"
)

// ClusterBenchConfig parameterizes the scale-out scenario. Zero values
// select the defaults noted per field.
type ClusterBenchConfig struct {
	Tuples      int   // stream length (default 20000)
	ShardCounts []int // cluster sizes to sweep (default 1,2,4)
	Keys        int   // order-key universe (default 512)
	// AdmitRate is the front door's token-bucket rate in tuples per
	// event-time unit (default 0.9 — the stream arrives at 1/unit, so
	// roughly a tenth is shed; < 0 disables admission control).
	AdmitRate float64
	Seed      uint64
}

func (c *ClusterBenchConfig) defaults() {
	if c.Tuples <= 0 {
		c.Tuples = 20000
	}
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 2, 4}
	}
	if c.Keys <= 0 {
		c.Keys = 512
	}
	if c.AdmitRate == 0 {
		c.AdmitRate = 0.9
	}
}

// ClusterBenchResult is one shard count's run.
type ClusterBenchResult struct {
	Shards           int
	IngestNsPerTuple float64
	ThroughputTPS    float64
	Imbalance        float64 // max/mean routed tuples per shard
	AdmissionDrops   int64
	Results          int64
}

// ClusterBench sweeps the cluster sizes over the identical stream and
// returns one row per shard count. It fails when any two shard counts
// disagree on results or drops, and when admission control is active
// but never sheds (vacuous gate).
func ClusterBench(cfg ClusterBenchConfig) ([]ClusterBenchResult, error) {
	cfg.defaults()
	cat := tpch.Catalog()
	pred := query.Predicate{
		Left:  query.Attr{Rel: tpch.LineItem, Name: "l_orderkey"},
		Right: query.Attr{Rel: tpch.Orders, Name: "o_orderkey"},
	}.Normalize()
	q, err := query.NewQuery("qcluster", []string{tpch.Orders, tpch.LineItem}, []query.Predicate{pred})
	if err != nil {
		return nil, err
	}
	qs := []*query.Query{q}
	est := stats.NewEstimates(0.1)
	est.SetRate(tpch.Orders, 100)
	est.SetRate(tpch.LineItem, 100)
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 2}).Optimize(qs, est)
	if err != nil {
		return nil, err
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: 2})
	if err != nil {
		return nil, err
	}
	// One materialized stream; every shard count consumes identical data.
	stream := skewStream(SkewConfig{Tuples: cfg.Tuples, Keys: cfg.Keys, ZipfS: 0.01, Seed: cfg.Seed})

	var rows []ClusterBenchResult
	for _, n := range cfg.ShardCounts {
		shards := make([]cluster.Shard, n)
		engines := make([]*runtime.Engine, n)
		for i := 0; i < n; i++ {
			eng := runtime.New(runtime.Config{Catalog: cat, Synchronous: true})
			if err := eng.Install(topo, 0); err != nil {
				return nil, err
			}
			engines[i] = eng
			shards[i] = eng
		}
		var adm cluster.AdmissionPolicy
		if cfg.AdmitRate > 0 {
			adm = &cluster.TokenBucket{Rate: cfg.AdmitRate, Burst: 32, Policy: runtime.ShedOnOverload}
		}
		cl, err := cluster.New(cluster.Config{Queries: qs, Catalog: cat, Admission: adm}, shards)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, rec := range stream {
			if err := cl.Ingest(rec.rel, rec.ts, rec.vals...); err != nil {
				return nil, err
			}
		}
		cl.Drain()
		elapsed := time.Since(start)
		if err := cl.Failure(); err != nil {
			return nil, err
		}
		m := cl.Metrics()
		for _, eng := range engines {
			eng.Stop()
		}
		rows = append(rows, ClusterBenchResult{
			Shards:           n,
			IngestNsPerTuple: float64(elapsed.Nanoseconds()) / float64(len(stream)),
			ThroughputTPS:    float64(len(stream)) / elapsed.Seconds(),
			Imbalance:        m.Imbalance,
			AdmissionDrops:   m.AdmissionDrops,
			Results:          m.Results,
		})
	}

	first := rows[0]
	for _, r := range rows[1:] {
		if r.Results != first.Results {
			return nil, fmt.Errorf("bench: cluster results diverge across shard counts: %d shards %d, %d shards %d",
				first.Shards, first.Results, r.Shards, r.Results)
		}
		if r.AdmissionDrops != first.AdmissionDrops {
			return nil, fmt.Errorf("bench: admission drops diverge across shard counts: %d vs %d",
				first.AdmissionDrops, r.AdmissionDrops)
		}
	}
	if cfg.AdmitRate > 0 && first.AdmissionDrops == 0 {
		return nil, fmt.Errorf("bench: admission control active but nothing shed — gate vacuous")
	}
	if first.Results == 0 {
		return nil, fmt.Errorf("bench: no results — cluster scenario vacuous")
	}
	return rows, nil
}

// FormatCluster renders the cluster scale-out table.
func FormatCluster(rows []ClusterBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %15s %16s %10s %10s %10s\n",
		"shards", "ingest ns/tuple", "throughput t/s", "imbalance", "drops", "results")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %15.1f %16.0f %10.2f %10d %10d\n",
			r.Shards, r.IngestNsPerTuple, r.ThroughputTPS, r.Imbalance, r.AdmissionDrops, r.Results)
	}
	return b.String()
}
