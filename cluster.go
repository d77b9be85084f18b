package clash

// Cluster: scale-out across N full engines (shards) behind a routing
// and admission front door. State is hash-partitioned by join key
// across shards; relations no consistent key exists for are broadcast;
// results from all shards merge deterministically, so a multi-shard run
// is byte-identical to a single engine (DESIGN.md §13). Routing is key
// hash, except the heavy hitters the degree sketches in
// Engine.InitialEstimates flag within a join class, which split over
// two candidate shards. Each shard is a complete Engine and may run any
// substrate, state backend, or WAL configuration.

import (
	"errors"
	"fmt"
	"path/filepath"

	"clash/internal/cluster"
)

// Cluster-layer types, re-exported from internal/cluster.
type (
	// AdmissionPolicy is the cluster's front door: it sees every tuple
	// before routing and may shed it.
	AdmissionPolicy = cluster.AdmissionPolicy
	// TokenBucket is the built-in AdmissionPolicy: Rate tuples per
	// event-time unit with bursts up to Burst; the OverloadPolicy picks
	// shed (lossy, counted) or block (lossless debt) when dry.
	TokenBucket = cluster.TokenBucket
	// ClusterMetrics aggregates per-shard engine counters with the
	// front door's routing/admission counters.
	ClusterMetrics = cluster.Metrics
	// ClusterShardMetrics is one shard's slice of ClusterMetrics.
	ClusterShardMetrics = cluster.ShardMetrics
	// ClusterPlan is the derived sharding plan (keyed vs broadcast
	// placement per relation, owner shard per fully-broadcast query).
	ClusterPlan = cluster.Plan
	// MergeSink accumulates shard results in canonical order for
	// byte-comparable exactness checks.
	MergeSink = cluster.MergeSink
)

// NewMergeSink returns an empty deterministic merge sink.
func NewMergeSink() *MergeSink { return cluster.NewMergeSink() }

// ClusterConfig assembles a cluster.
type ClusterConfig struct {
	// Shards is the engine count (default 2).
	Shards int
	// Engine is the per-shard engine template. Per-shard derivations:
	// WAL.Dir becomes Dir/shard-<i>, and simulation schedule seeds are
	// decorrelated per shard. OnResult must be empty (register result
	// sinks on the cluster, which owns the merge contract), and
	// WAL.Storage cannot be shared across multiple shards. The front
	// door's router reads its hot keys from InitialEstimates' degree
	// sketches: a key with at least a 1/Shards share of a join class
	// spreads that class's tuples over two candidate shards; every other
	// value, and that value in other classes, routes by plain key hash.
	Engine Config
	// Admission gates tuples before routing (nil: admit everything).
	Admission AdmissionPolicy
}

// Cluster is N engines behind one Ingest front door.
type Cluster struct {
	cl      *cluster.Cluster
	engines []*Engine
}

// NewCluster starts the shard engines and wires the front door.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 2
	}
	ecfg := cfg.Engine
	if len(ecfg.OnResult) > 0 {
		return nil, errors.New("clash: register result sinks on the cluster, not the shard template")
	}
	if ecfg.WAL != nil && ecfg.WAL.Storage != nil && n > 1 {
		return nil, errors.New("clash: shards cannot share one WALStorage — set WAL.Dir for per-shard directories")
	}
	qs, cat, err := ecfg.workload()
	if err != nil {
		return nil, err
	}
	// Every shard compiles the one parse, not its own.
	ecfg.Workload, ecfg.Queries, ecfg.Catalog = "", qs, cat

	c := &Cluster{}
	fail := func(err error) (*Cluster, error) {
		c.Stop()
		return nil, err
	}
	shards := make([]cluster.Shard, n)
	for i := 0; i < n; i++ {
		scfg := ecfg
		if scfg.WAL != nil {
			w := *scfg.WAL
			w.Dir = filepath.Join(w.Dir, fmt.Sprintf("shard-%d", i))
			scfg.WAL = &w
		}
		// Decorrelate simulated schedules: one shared seed would hide
		// cross-shard ordering assumptions.
		scfg.Sim.Seed ^= uint64(i+1) * 0x9E3779B97F4A7C15
		eng, err := Start(scfg)
		if err != nil {
			return fail(fmt.Errorf("clash: shard %d: %w", i, err))
		}
		c.engines = append(c.engines, eng)
		shards[i] = eng
	}

	cl, err := cluster.New(cluster.Config{Queries: qs, Catalog: cat, Estimates: ecfg.InitialEstimates, Admission: cfg.Admission}, shards)
	if err != nil {
		return fail(err)
	}
	c.cl = cl
	return c, nil
}

// Ingest admits and routes one tuple; a shed tuple is dropped silently
// and counted in Metrics().AdmissionDrops.
func (c *Cluster) Ingest(rel string, ts Time, vals ...Value) error {
	return c.cl.Ingest(rel, ts, vals...)
}

// OnResult registers a result callback for a query. Each result is
// delivered exactly once cluster-wide: queries with keyed relations
// materialize each result on one shard; fully-broadcast queries are
// filtered to their owner shard. The *Tuple passed is valid only until
// the callback returns; a callback that keeps it keeps tp.Clone().
func (c *Cluster) OnResult(queryName string, fn func(*Tuple)) { c.cl.OnResult(queryName, fn) }

// Drain settles every shard.
func (c *Cluster) Drain() { c.cl.Drain() }

// Failure returns the first shard failure, if any.
func (c *Cluster) Failure() error { return c.cl.Failure() }

// Metrics aggregates cluster-level counters: per-shard queue depth,
// handled tuples and state bytes, admission drops, routing imbalance,
// and p99 ingest latency.
func (c *Cluster) Metrics() ClusterMetrics { return c.cl.Metrics() }

// Plan exposes the derived sharding plan.
func (c *Cluster) Plan() *ClusterPlan { return c.cl.Plan() }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.engines) }

// Shard returns shard i's engine (metrics, checkpoints, WAL stats).
func (c *Cluster) Shard(i int) *Engine { return c.engines[i] }

// Stop terminates every shard without flushing durable state — the
// cluster-level analogue of Engine.Stop.
func (c *Cluster) Stop() {
	for _, e := range c.engines {
		e.Stop()
	}
}

// Close drains the cluster and closes every shard (flushing final
// checkpoints on durable shards), returning the first error.
func (c *Cluster) Close() error {
	c.Drain()
	var first error
	for _, e := range c.engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
