package main

import (
	"os"
	"path/filepath"
	"time"

	"clash"
	"clash/internal/cluster"
	"clash/internal/core"
	"clash/internal/mir"
	"clash/internal/query"
	"clash/internal/recovery"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// Per-layer numbers. Counts come from the public snapshots the system
// already keeps; timings come from spans the harness records around its
// own calls, and from probes that replay the workload's own queries and
// tuples through one layer's exported functions.

// planStats accumulates Plan().Stats over every (re)optimization of a
// run: the ILP's size and effort as the engine actually solved it.
type planStats struct {
	plans              int
	solve, build       time.Duration
	nodes              int
	vars, rows, mirs   int
	cacheHit, cacheAll int
	cost               float64
}

func (p *planStats) add(plan *clash.Plan) {
	if plan == nil {
		return
	}
	s := plan.Stats
	p.plans++
	p.solve += s.SolveTime
	p.build += s.BuildTime
	p.nodes += s.Nodes
	p.vars, p.rows, p.mirs = s.Variables, s.Constraints, s.MIRs
	p.cacheHit += s.CacheHits
	p.cacheAll += s.CacheHits + s.CacheMisses
	p.cost = plan.Objective
}

func (p *planStats) report(r *result) {
	if p.plans == 0 {
		return
	}
	n := float64(p.plans)
	r.set("ilp.solve_ms", float64(p.solve)/1e6/n, int64(p.plans))
	r.set("ilp.build_ms", float64(p.build)/1e6/n, int64(p.plans))
	r.set("ilp.nodes", float64(p.nodes)/n, int64(p.plans))
	r.set("ilp.vars", float64(p.vars), 0)
	r.set("ilp.rows", float64(p.rows), 0)
	r.set("mir.mirs", float64(p.mirs), 0)
	if p.cacheAll > 0 {
		r.set("ilp.cache_hit_ratio", float64(p.cacheHit)/float64(p.cacheAll), int64(p.cacheAll))
	}
	r.set("core.plan_cost", p.cost, 0)
}

// engineLayerMetrics reads the topology and state numbers of the
// engines of a run (one, or one per shard) and, when MeasuredCosts was
// on, the per-tuple probe, insert and prune times the tasks metered.
func engineLayerMetrics(r *result, engines []*clash.Engine, stored, storeBytes, indexBytes int64) {
	var stores, tasks int
	var c struct{ probeNS, probeN, insertNS, insertN, pruneNS, pruneN int64 }
	for _, e := range engines {
		if topo := e.Topology(1 << 40); topo != nil {
			stores += len(topo.Stores)
		}
		for _, g := range e.TaskGauges() {
			tasks++
			c.probeNS += g.ProbeNanos
			c.probeN += g.ProbeTuples
			c.insertNS += g.InsertNanos
			c.insertN += g.InsertTuples
			c.pruneNS += g.PruneNanos
			c.pruneN += g.PruneTuples
		}
	}
	r.set("topology.stores", float64(stores), 0)
	r.set("topology.tasks", float64(tasks), 0)
	if stored > 0 {
		r.set("runtime.state.bytes_per_tuple", float64(storeBytes)/float64(stored), stored)
	}
	if storeBytes > 0 {
		r.set("runtime.state.index_share", float64(indexBytes)/float64(storeBytes), 0)
	}
	perTuple := func(name string, ns, n int64) {
		if n > 0 {
			r.set(name, float64(ns)/float64(n), n)
		}
	}
	perTuple("runtime.probe_ns_per_tuple", c.probeNS, c.probeN)
	perTuple("runtime.insert_ns_per_tuple", c.insertNS, c.insertN)
	perTuple("runtime.prune_ns_per_tuple", c.pruneNS, c.pruneN)
	// The same meters as totals, so the shares of a run can be compared.
	r.set("runtime.probe_ms", float64(c.probeNS)/1e6, c.probeN)
	r.set("runtime.insert_ms", float64(c.insertNS)/1e6, c.insertN)
	r.set("runtime.prune_ms", float64(c.pruneNS)/1e6, c.pruneN)
}

// traceMetrics turns the spans of a traced run into per-layer timings;
// ingestSpan names the span recorded per 1024 Ingest calls.
func traceMetrics(r *result, tr *tracer, ingestSpan string, measured int64) {
	r.set("runtime.ingest_ns_per_tuple", float64(tr.total(ingestSpan))/float64(measured), measured)
	r.set("runtime.drain_ms", float64(tr.total("runtime.drain"))/1e6, 0)
}

// optimizerInputs is what the optimizer-side probes replay.
type optimizerInputs struct {
	queries []*query.Query
	est     *stats.Estimates
	opts    core.Options
	// churn lists query sets the engine re-optimized for, in order; the
	// probe replays a few of them on a fresh cross-churn handle to read
	// the memo's hit ratio.
	churn [][]*query.Query
}

// probeOptimizer replays the workload's queries through mir, core and
// ilp and derives the install time that is left of a measured set-up.
func probeOptimizer(tr *tracer, r *result, in optimizerInputs, parse func() error) error {
	end := tr.begin("query.parse")
	t0 := nanos()
	if err := parse(); err != nil {
		return err
	}
	r.set("query.parse_ms", float64(nanos()-t0)/1e6, 0)
	end()

	end = tr.begin("mir.enumerate")
	t0 = nanos()
	mirs := mir.Enumerate(in.queries)
	r.set("mir.enumerate_ms", float64(nanos()-t0)/1e6, 0)
	end()

	end = tr.begin("mir.candidates")
	t0 = nanos()
	orders := 0
	for _, q := range in.queries {
		for _, c := range mir.Candidates(q, mirs) {
			orders += len(c)
		}
	}
	r.set("mir.candidates_ms", float64(nanos()-t0)/1e6, int64(orders))
	end()

	end = tr.begin("core.optimize")
	t0 = nanos()
	plan, err := core.NewOptimizer(in.opts).Optimize(in.queries, in.est)
	optimizeNS := nanos() - t0
	end()
	if err != nil {
		return err
	}
	// Self time: the optimizer's own work once model building (which
	// holds mir's) and the ILP solve are taken out.
	self := optimizeNS - int64(plan.Stats.SolveTime) - int64(plan.Stats.BuildTime)
	r.set("core.optimize_ms", float64(self)/1e6, 0)

	end = tr.begin("core.compile")
	t0 = nanos()
	if _, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: in.opts.Parallelism()}); err != nil {
		return err
	}
	compileNS := nanos() - t0
	r.set("core.compile_ms", float64(compileNS)/1e6, 0)
	end()

	// What a set-up spends past planning and compiling is the runtime
	// installing the topology (and the engine's own start-up).
	install := r.Metrics["harness.raw_setup_s"].Value*1e3 - float64(optimizeNS+compileNS)/1e6 - r.Metrics["query.parse_ms"].Value
	if install < 0 {
		install = 0
	}
	r.set("runtime.install_ms", install, 0)

	if len(in.churn) > 0 {
		end = tr.begin("core.reopt_replay")
		opts := in.opts
		opts.Reopt = core.NewReopt()
		for _, qs := range in.churn {
			opts.Reopt.Advance()
			if _, err := core.NewOptimizer(opts).Optimize(qs, in.est); err != nil {
				return err
			}
		}
		end()
		s := opts.Reopt.Stats()
		if all := s.MemoHits + s.MemoMisses; all > 0 {
			r.set("mir.memo_hit_ratio", float64(s.MemoHits)/float64(all), int64(all))
		}
	}
	return nil
}

// probeLimit bounds how many of the workload's tuples a tuple-level
// probe replays.
const probeLimit = 200_000

// probeTuples replays up to probeLimit of the workload's own tuples
// through the statistics collector and the tuple codec.
func probeTuples(tr *tracer, r *result, in *stream, cat *query.Catalog, preds []query.Predicate, epoch int) {
	n := in.len()
	if n > probeLimit {
		n = probeLimit
	}
	schemas := map[string]*tuple.Schema{}
	for _, name := range cat.Names() {
		schemas[name] = tuple.NewSchema(cat.Relation(name).QualifiedAttrs()...)
	}
	tuples := make([]*tuple.Tuple, n)
	for i := range tuples {
		rel, vals := in.at(i)
		tuples[i] = tuple.New(schemas[rel], tuple.Time(i+1), vals...)
	}

	// The collector as clash.Start configures it, sealed once per epoch
	// as the controller does.
	col := stats.NewCollector(256, 128, 1)
	var observeNS, sealNS int64
	seals := 0
	end := tr.begin("stats.observe")
	for from := 0; from < n; from += epoch {
		to := from + epoch
		if to > n {
			to = n
		}
		t0 := nanos()
		for i := from; i < to; i++ {
			col.Observe(in.names[in.rel[i]], tuples[i])
		}
		observeNS += nanos() - t0
		if to-from == epoch {
			endSeal := tr.begin("stats.seal")
			t0 = nanos()
			col.Seal(time.Duration(epoch), preds)
			sealNS += nanos() - t0
			seals++
			endSeal()
		}
	}
	end()
	r.set("stats.observe_ns_per_tuple", float64(observeNS)/float64(n), int64(n))
	if seals > 0 {
		r.set("stats.seal_ms", float64(sealNS)/1e6/float64(seals), int64(seals))
	}

	end = tr.begin("tuple.encode")
	var buf []byte
	ends := make([]int, n)
	t0 := nanos()
	for i, t := range tuples {
		buf = tuple.AppendTuple(buf, t)
		ends[i] = len(buf)
	}
	r.set("tuple.encode_ns_per_tuple", float64(nanos()-t0)/float64(n), int64(n))
	end()

	end = tr.begin("tuple.decode")
	t0 = nanos()
	rest := buf
	for i := range tuples {
		rel, _ := in.at(i)
		var err error
		if _, rest, err = tuple.DecodeTuple(rest, schemas[rel]); err != nil {
			r.fail(1, "tuple codec probe: decode %d: %v", i, err)
			break
		}
	}
	r.set("tuple.decode_ns_per_tuple", float64(nanos()-t0)/float64(n), int64(n))
	end()
}

// probeWAL appends up to probeLimit of the workload's tuples to a
// stand-alone write-ahead log on directory storage, as a durable engine
// does before it applies each one.
func probeWAL(tr *tracer, r *result, in *stream, dir string) error {
	n := in.len()
	if n > probeLimit {
		n = probeLimit
	}
	dir = filepath.Join(dir, "wal-probe")
	defer os.RemoveAll(dir)
	st, err := recovery.NewDirStorage(dir, false)
	if err != nil {
		return err
	}
	defer st.Close()
	mgr, err := recovery.NewManager(st, recovery.Config{})
	if err != nil {
		return err
	}
	end := tr.begin("recovery.wal_append")
	t0 := nanos()
	for i := 0; i < n; i++ {
		rel, vals := in.at(i)
		if err := mgr.LogIngest(rel, tuple.Time(i+1), vals, uint64(i+1)); err != nil {
			return err
		}
	}
	r.set("recovery.wal_append_ns_per_tuple", float64(nanos()-t0)/float64(n), int64(n))
	end()
	return nil
}

// probeBuildPlan times the derivation of the sharding plan.
func probeBuildPlan(tr *tracer, r *result, qs []*query.Query, cat *query.Catalog, shards int) error {
	end := tr.begin("cluster.buildplan")
	defer end()
	t0 := nanos()
	if _, err := cluster.BuildPlan(qs, cat, shards); err != nil {
		return err
	}
	r.set("cluster.buildplan_ms", float64(nanos()-t0)/1e6, 0)
	return nil
}

// allPreds lists the distinct predicates of the queries.
func allPreds(qs []*query.Query) []query.Predicate {
	var out []query.Predicate
	seen := map[string]bool{}
	for _, q := range qs {
		for _, p := range q.Preds {
			if !seen[p.String()] {
				seen[p.String()] = true
				out = append(out, p)
			}
		}
	}
	return out
}
