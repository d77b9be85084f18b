package sim

// Cluster scenario: the deterministic simulation substrate one level
// up. N simulated engines run behind the cluster front door (routing +
// admission), each under its own seeded schedule, and the merged result
// stream is byte-compared against a single synchronous engine fed the
// identical stream — the single-engine oracle. Exactness across shard counts
// is the cluster's core claim: hash-partitioning by join key plus
// broadcast of unkeyed relations makes every result materialize on
// exactly one shard (or on the owning shard for fully-broadcast
// queries), so the canonical merged bytes match the oracle's bytes for
// every seed, shard count, and state backend.

import (
	"bytes"
	"fmt"

	"clash/internal/cluster"
	"clash/internal/runtime"
)

// ClusterScenario runs a Scenario's workload across N simulated shards.
type ClusterScenario struct {
	Scenario
	// Shards is the engine count (default 2).
	Shards int
	// Admission gates tuples before routing (nil: admit everything).
	Admission cluster.AdmissionPolicy
}

func (cs *ClusterScenario) shards() int {
	if cs.Shards <= 0 {
		return 2
	}
	return cs.Shards
}

// ClusterResult is the outcome of one cluster run.
type ClusterResult struct {
	Queries []string
	Sink    *cluster.MergeSink
	Metrics cluster.Metrics
	Plan    *cluster.Plan
	// Oracle holds the single-engine run's merged results.
	Oracle *cluster.MergeSink
}

// RunCluster executes the scenario: N simulated engines with
// decorrelated schedule seeds behind one front door, plus the
// single-engine synchronous oracle over the same stream.
func (cs *ClusterScenario) RunCluster() (*ClusterResult, error) {
	n := cs.shards()
	qs, cat, topo, err := cs.build()
	if err != nil {
		return nil, err
	}
	credits := cs.effectiveCredits()
	engines := make([]*runtime.Engine, n)
	shards := make([]cluster.Shard, n)
	for i := 0; i < n; i++ {
		cfg := cs.engineConfig(cat, credits, nil)
		// Decorrelate the shard schedules: a shared seed would hide
		// cross-shard ordering assumptions.
		cfg.Sim.Seed = cs.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15)
		eng := runtime.New(cfg)
		if err := eng.Install(topo, 0); err != nil {
			return nil, err
		}
		engines[i] = eng
		shards[i] = eng
	}
	defer func() {
		for _, eng := range engines {
			eng.Stop()
		}
	}()

	// The router splits the hot keys of the scenario's Estimates, the
	// ones the engines' optimizer split on.
	cl, err := cluster.New(cluster.Config{Queries: qs, Catalog: cat, Estimates: cs.Estimates, Admission: cs.Admission}, shards)
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{Sink: cluster.NewMergeSink(), Plan: cl.Plan()}
	for _, q := range qs {
		res.Queries = append(res.Queries, q.Name)
		cl.OnResult(q.Name, res.Sink.Add(q.Name))
	}

	ins := generateStream(cat, cs.Stream)
	for _, f := range cs.Faults {
		ins = f.Deliver(ins)
	}
	for _, in := range ins {
		if err := cl.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			return nil, fmt.Errorf("sim: cluster ingest: %w", err)
		}
	}
	cl.Drain()
	if err := cl.Failure(); err != nil {
		return nil, fmt.Errorf("sim: cluster run: %w", err)
	}
	res.Metrics = cl.Metrics()

	// Single-engine oracle: one synchronous engine, same
	// topology, same stream — only valid when admission dropped nothing
	// (the oracle has no front door).
	if res.Metrics.AdmissionDrops == 0 {
		oeng := runtime.New(runtime.Config{
			Catalog:       cat,
			DefaultWindow: cs.Window,
			EpochLength:   cs.EpochLength,
			Substrate:     runtime.SubstrateSynchronous,
			StateBackend:  cs.Backend,
			StateHotBytes: cs.StateHotBytes,
		})
		defer oeng.Stop()
		if err := oeng.Install(topo, 0); err != nil {
			return nil, err
		}
		res.Oracle = cluster.NewMergeSink()
		for _, q := range qs {
			oeng.OnResult(q.Name, res.Oracle.Add(q.Name))
		}
		for _, in := range ins {
			if err := oeng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				return nil, fmt.Errorf("sim: oracle ingest: %w", err)
			}
		}
		oeng.Drain()
	}
	return res, nil
}

// VerifyExact byte-compares the cluster's merged result stream against
// the single-engine oracle's, per query.
func (cr *ClusterResult) VerifyExact() error {
	if cr.Oracle == nil {
		return fmt.Errorf("sim: no oracle (admission dropped tuples)")
	}
	total := 0
	for _, q := range cr.Queries {
		got, want := cr.Sink.Bytes(q), cr.Oracle.Bytes(q)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("sim: %s: cluster results (%d) diverge from single-engine oracle (%d)",
				q, cr.Sink.Count(q), cr.Oracle.Count(q))
		}
		total += cr.Sink.Count(q)
	}
	if total == 0 {
		return fmt.Errorf("sim: no results — cluster run vacuous")
	}
	return nil
}

// ClusterSweep verifies cluster exactness across seeds, shard counts,
// and every row of the state matrix (StateConfigs): every run's merged bytes must equal
// its single-engine oracle's. The tiered arm runs every shard (and the
// oracle) under a hot budget that forces spills, so cross-shard merge
// order is checked against cold-epoch read-through too. Returns the
// number of verified runs.
func ClusterSweep(base ClusterScenario, seeds int, shardCounts []int) (int, error) {
	runs := 0
	for _, row := range StateConfigs() {
		for _, n := range shardCounts {
			for seed := 1; seed <= seeds; seed++ {
				cs := base
				cs.Seed = uint64(seed)
				cs.Shards = n
				cs.UseState(row)
				if cs.Stream.Seed == 0 {
					cs.Stream.Seed = uint64(seed) * 31
				}
				res, err := cs.RunCluster()
				if err != nil {
					return runs, fmt.Errorf("backend %s shards %d seed %d: %w", row.Name, n, seed, err)
				}
				if err := res.VerifyExact(); err != nil {
					return runs, fmt.Errorf("backend %s shards %d seed %d: %w", row.Name, n, seed, err)
				}
				runs++
			}
		}
	}
	return runs, nil
}
