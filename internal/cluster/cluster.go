package cluster

import (
	"fmt"
	"sync"
	"time"

	"clash/internal/query"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// Shard is one engine of the cluster. *runtime.Engine satisfies it
// directly; the public clash.Engine wraps to it as well, so a shard can
// run any substrate, state backend, or WAL configuration.
type Shard interface {
	Ingest(rel string, ts tuple.Time, vals ...tuple.Value) error
	Drain()
	Failure() error
	Snapshot() runtime.Snapshot
	Pressure() runtime.Pressure
	OnResult(queryName string, fn func(*tuple.Tuple))
}

// Config assembles a cluster front door.
type Config struct {
	Queries []*query.Query
	Catalog *query.Catalog
	// Estimates carry the degree sketches the router derives its hot
	// keys from (nil: plain key hash).
	Estimates *stats.Estimates
	// Admission gates tuples before routing (nil: admit everything).
	Admission AdmissionPolicy
}

// Cluster routes an input stream across N engine shards and aggregates
// their results and metrics. Ingest is serialized by an internal lock:
// the router's load counters and the admission bucket are shared state,
// and a single front door matches the engines' one-source model.
type Cluster struct {
	mu     sync.Mutex
	plan   *Plan
	shards []Shard
	router *Router
	adm    AdmissionPolicy

	routed []int64 // per-shard placements (including replicas)
	placed int64   // admitted tuples
	extra  int64   // replica placements beyond one per admitted tuple
	drops  int64   // admission drops
	lat    latencyRing
	now    func() time.Time
}

// New builds the sharding plan for the workload and wires the shards
// behind it. The shards must already have the workload's topology
// installed; they are the caller's to stop/close.
func New(cfg Config, shards []Shard) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	plan, err := BuildPlan(cfg.Queries, cfg.Catalog, len(shards))
	if err != nil {
		return nil, err
	}
	return &Cluster{
		plan:   plan,
		shards: shards,
		router: NewRouter(plan, cfg.Estimates),
		adm:    cfg.Admission,
		routed: make([]int64, len(shards)),
		now:    time.Now,
	}, nil
}

// Plan exposes the sharding plan (tests assert placements).
func (c *Cluster) Plan() *Plan { return c.plan }

// Ingest admits, routes, and delivers one source tuple. A shed tuple is
// dropped silently (counted in Metrics().AdmissionDrops), mirroring the
// engines' ShedOnOverload contract.
func (c *Cluster) Ingest(rel string, ts tuple.Time, vals ...tuple.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	pl, ok := c.plan.Relations[rel]
	if !ok {
		return fmt.Errorf("%w %q", runtime.ErrUnknownRelation, rel)
	}
	if c.adm != nil && !c.adm.Admit(ts) {
		c.drops++
		return nil
	}
	if pl.Keyed() && pl.Index >= len(vals) {
		return fmt.Errorf("cluster: %d values for relation %s, routing attribute at %d", len(vals), rel, pl.Index)
	}
	start := c.now()
	if pl.Keyed() {
		d, alt := c.router.Keyed(rel, vals[pl.Index].Hash(), c.routed)
		if err := c.deliver(d, rel, ts, vals); err != nil {
			return err
		}
		if alt >= 0 {
			if err := c.deliver(alt, rel, ts, vals); err != nil {
				return err
			}
			c.extra++
		}
	} else {
		for d := range c.shards {
			if err := c.deliver(d, rel, ts, vals); err != nil {
				return err
			}
		}
		c.extra += int64(len(c.shards) - 1)
	}
	c.placed++
	c.lat.add(c.now().Sub(start))
	return nil
}

// deliver ingests one source tuple on shard d. Caller holds c.mu.
func (c *Cluster) deliver(d int, rel string, ts tuple.Time, vals []tuple.Value) error {
	if err := c.shards[d].Ingest(rel, ts, vals...); err != nil {
		return fmt.Errorf("cluster: shard %d: %w", d, err)
	}
	c.routed[d]++
	return nil
}

// OnResult registers a result sink for a query. Results of a query with
// keyed relations materialize on exactly one shard each, so the sink
// attaches everywhere; a fully-broadcast query's identical result copies
// materialize on every shard, so only the owning shard's copy is
// forwarded — that is the deterministic merge contract.
func (c *Cluster) OnResult(queryName string, fn func(*tuple.Tuple)) {
	if owner, ok := c.plan.OwnerOnly[queryName]; ok {
		c.shards[owner].OnResult(queryName, fn)
		return
	}
	for _, s := range c.shards {
		s.OnResult(queryName, fn)
	}
}

// Drain settles every shard.
func (c *Cluster) Drain() {
	for _, s := range c.shards {
		s.Drain()
	}
}

// Failure returns the first shard failure, if any.
func (c *Cluster) Failure() error {
	for i, s := range c.shards {
		if err := s.Failure(); err != nil {
			return fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	return nil
}
