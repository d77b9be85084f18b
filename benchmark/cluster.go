package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clash"
	"clash/internal/rng"
)

const clusterWhy = "front door, flow substrate and durability, state written more than read: 2 shards with WAL and checkpoints, paced at a fixed rate, then saturated, then crashed and recovered; probes mostly miss"

// Two-way joins only: they are exact on the asynchronous substrates,
// where a multi-hop probe can race the insert it should have met.
const clusterWorkload = "q1: R(a) S(a)\nq2: S(a) T(a)"

var clusterQueries = []string{"q1", "q2"}

// clusterRun is the state of one cluster-paced run.
type clusterRun struct {
	o       runOpts
	in      *stream
	scratch string
	epoch   int
	snk     *sink
	tr      *tracer
	r       *result

	cl  *clash.Cluster
	dir string // WAL directory of the cluster in use

	peakState  int64
	queueMax   int
	creditsMin int64
}

func (c *clusterRun) engineConfig(walDir string, traced bool) (clash.Config, error) {
	queries, cat, err := clash.ParseWorkload(clusterWorkload)
	if err != nil {
		return clash.Config{}, err
	}
	return clash.Config{
		Queries: queries, Catalog: cat,
		DefaultWindow:    clusterWindow,
		EpochLength:      time.Duration(c.epoch),
		Substrate:        clash.SubstrateFlow,
		Flow:             clash.FlowConfig{Workers: 1},
		StateBackend:     clash.BackendColumnar,
		InitialEstimates: estimate(cat, queries, c.in, estimateInputs),
		MeasuredCosts:    traced,
		WAL:              &clash.WALConfig{Dir: walDir, NoSync: true, CheckpointEvery: clusterCheckpoint},
	}, nil
}

func (c *clusterRun) start(rep int) (*clash.Cluster, error) {
	c.dir = filepath.Join(c.scratch, fmt.Sprintf("wal-%d", rep))
	cfg, err := c.engineConfig(c.dir, c.o.traced)
	if err != nil {
		return nil, err
	}
	cl, err := clash.NewCluster(clash.ClusterConfig{
		Shards: clusterShards,
		Engine: cfg,
		// Two tokens per event-time unit against an offered one: the
		// admission path runs on every tuple and drops none.
		Admission: &clash.TokenBucket{Rate: 2, Burst: 64, Policy: clash.ShedOnOverload},
	})
	if err != nil {
		return nil, err
	}
	for q, fn := range c.snk.callbacks() {
		cl.OnResult(q, fn)
	}
	return cl, nil
}

// sample reads the state and pressure gauges at an epoch boundary.
func (c *clusterRun) sample() {
	var bytes int64
	for i := 0; i < c.cl.Shards(); i++ {
		e := c.cl.Shard(i)
		bytes += e.Metrics().StoreBytes
		p := e.Pressure()
		if p.MaxQueueDepth > c.queueMax {
			c.queueMax = p.MaxQueueDepth
		}
		if p.Credits < c.creditsMin {
			c.creditsMin = p.Credits
		}
	}
	if bytes > c.peakState {
		c.peakState = bytes
	}
}

// phase ingests inputs [from, to), cut into slices; p, when set, paces
// the phase in an open loop and gives each input's due time.
func (c *clusterRun) phase(name string, from, to int, p *pacer) (*window, error) {
	end := c.tr.begin("harness." + name)
	defer end()
	ends := sliceEnds(to-from, slicesPerWindow)
	win := &window{}
	win.begin()
	if p != nil {
		p.start = nanos()
	}
	endBatch := c.tr.begin("cluster.ingest")
	for i, slice := from, 0; i < to; i++ {
		rel, vals := c.in.at(i)
		if p != nil {
			c.snk.due[i] = p.next()
		}
		if err := c.cl.Ingest(rel, clash.Time(i+1), vals...); err != nil {
			c.r.fail(1, "ingest %d: %v", i, err)
		}
		k := i - from
		if c.tr != nil && (k+1)%1024 == 0 {
			endBatch()
			endBatch = c.tr.begin("cluster.ingest")
		}
		if (i+1)%c.epoch == 0 {
			c.sample()
		}
		if k+1 == ends[slice] {
			endBatch()
			if slice == len(ends)-1 {
				// The last slice ends when the cluster has settled.
				endDrain := c.tr.begin("runtime.drain")
				c.cl.Drain()
				endDrain()
			}
			t0 := nanos()
			win.cut(k + 1)
			if p != nil {
				// The schedule stands still while the harness reads its
				// meters: the time is not the system's.
				p.start += nanos() - t0
			}
			slice++
			endBatch = c.tr.begin("cluster.ingest")
		}
	}
	endBatch()
	return win, c.cl.Failure()
}

type shardTotals struct {
	ingested, probeSent, messages, results, stored, storeBytes, indexBytes, shed int64
	busy                                                                         int64
	lag                                                                          time.Duration
}

func (c *clusterRun) totals() shardTotals {
	var t shardTotals
	for i := 0; i < c.cl.Shards(); i++ {
		e := c.cl.Shard(i)
		m := e.Metrics()
		t.ingested += m.Ingested
		t.probeSent += m.ProbeSent
		t.messages += m.Messages
		t.results += m.Results
		t.stored += m.Stored
		t.storeBytes += m.StoreBytes
		t.indexBytes += m.IndexBytes
		t.shed += m.ShedTuples
		if m.AvgLag > t.lag {
			t.lag = m.AvgLag
		}
		for _, g := range e.TaskGauges() {
			t.busy += g.BusyNanos
		}
	}
	return t
}

// clusterInputs draws R, S and T tuples evenly over near-uniform keys.
func clusterInputs(seed uint64, scale float64) *stream {
	n := clusterWindow + scaled(clusterPacedInputs, scale) + scaled(clusterSaturateInputs, scale)
	rnd := rng.New(seed ^ 0xc1a57e2)
	z := rng.NewZipf(rnd, clusterKeys, clusterZipf)
	in := newStream([]string{"R", "S", "T"}, n)
	for i := 0; i < n; i++ {
		in.add(rnd.Intn(3), clash.Int(int64(z.Draw())))
	}
	return in
}

func clusterPaced(o runOpts) (*result, error) {
	t0 := time.Now()
	paced, saturate := scaled(clusterPacedInputs, o.scale), scaled(clusterSaturateInputs, o.scale)
	warm := clusterWindow
	in := clusterInputs(o.seed, o.scale)
	n := in.len()
	genMS := float64(time.Since(t0)) / 1e6

	c := &clusterRun{
		o: o, in: in, epoch: clusterWindow / clusterEpochs,
		scratch:    filepath.Join(o.outDir, fmt.Sprintf("scratch-%d", os.Getpid())),
		snk:        newSink(clusterQueries, n, maxLatencySamples),
		creditsMin: 1 << 62,
	}
	if o.traced {
		c.tr = newTracer("cluster-paced")
	}
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.scratch)
	r := &result{Workload: "cluster-paced", Seed: o.seed, Scale: o.scale, Traced: o.traced, Metrics: map[string]value{},
		Sizes: map[string]int64{
			"inputs": int64(n), "warmup_inputs": int64(warm), "paced_inputs": int64(paced), "saturate_inputs": int64(saturate),
			"paced_rate_per_s": clusterPacedRate, "window_inputs": clusterWindow, "epoch_inputs": int64(c.epoch),
			"keys": clusterKeys, "shards": clusterShards, "checkpoint_every": clusterCheckpoint, "queries": 2,
		}}
	c.r = r

	endSetup := c.tr.begin("harness.setup")
	cl, err := setUp(r, c.start, func(old *clash.Cluster) { old.Close(); os.RemoveAll(c.dir) })
	endSetup()
	if err != nil {
		return nil, err
	}
	c.cl = cl
	stopped := false
	defer func() {
		if !stopped {
			cl.Stop()
		}
	}()
	plans := &planStats{}
	plans.add(cl.Shard(0).Plan())

	endWarm := c.tr.begin("harness.warmup")
	for i := 0; i < warm; i++ {
		rel, vals := in.at(i)
		if err := cl.Ingest(rel, clash.Time(i+1), vals...); err != nil {
			return nil, fmt.Errorf("warm-up ingest %d: %w", i, err)
		}
	}
	cl.Drain()
	endWarm()
	runtime.GC()
	base := c.totals()

	// Paced: an open loop at a fixed rate, for latency timed from each
	// input's due time.
	p := newPacer(nanos, clusterPacedRate)
	pacedWin, err := c.phase("paced", warm, warm+paced, p)
	if err != nil {
		r.fail(1, "paced phase: %v", err)
	}
	afterPaced := c.totals()
	atCheck := c.snk.digest() // the phase ends drained
	setLatency(r, c.snk, func(input int) float64 { return pacedWin.factorAt(input - warm) })
	r.set("harness.late_share", float64(p.late)/float64(paced), int64(paced))
	r.set("harness.late_max_ms", float64(p.lateMax)/1e6, int64(paced))
	r.set("harness.paced_rate_achieved_per_s", float64(paced)/pacedWin.wallSeconds(), 0)
	r.set("runtime.flow.busy_share",
		float64(afterPaced.busy-base.busy)/(pacedWin.wallSeconds()*1e9*clusterShards), 0)

	// A commit point between the phases, timed: the cost of a checkpoint
	// of a full window of state.
	var ckptNS int64
	for i := 0; i < cl.Shards(); i++ {
		end := c.tr.begin("recovery.checkpoint")
		t := nanos()
		if err := cl.Shard(i).CommitCheckpoint(); err != nil {
			r.fail(1, "checkpoint shard %d: %v", i, err)
		}
		ckptNS += nanos() - t
		end()
	}
	r.set("recovery.checkpoint_ms", float64(ckptNS)/1e6/clusterShards, clusterShards)

	// Saturate: a closed loop, as fast as backpressure admits, for
	// throughput and the CPU and heap cost of a tuple.
	runtime.GC()
	satWin, err := c.phase("saturate", warm+paced, n, nil)
	if err != nil {
		r.fail(1, "saturate phase: %v", err)
	}
	satWin.report(r)
	r.set("cluster.ingest_ns_per_tuple", satWin.wallSeconds()*1e9/float64(saturate), int64(saturate))
	end := c.totals()
	c.sample()
	measured := int64(paced + saturate)
	r.set("state_bytes_peak", float64(c.peakState), 0)
	r.set("probe_tuples_per_input", float64(end.probeSent-base.probeSent)/float64(measured), 0)
	r.set("runtime.messages_per_input", float64(end.messages-base.messages)/float64(measured), 0)
	r.set("runtime.results_per_input", float64(end.results-base.results)/float64(measured), 0)
	r.set("runtime.flow.queue_depth_max", float64(c.queueMax), 0)
	r.set("runtime.flow.credits_min", float64(c.creditsMin), 0)
	r.set("runtime.flow.lag_avg_us", float64(end.lag)/1e3, 0)
	engines := make([]*clash.Engine, cl.Shards())
	for i := range engines {
		engines[i] = cl.Shard(i)
	}
	engineLayerMetrics(r, engines, end.stored, end.storeBytes, end.indexBytes)
	plans.report(r)

	cm := cl.Metrics()
	r.set("cluster.imbalance", cm.Imbalance, 0)
	if cm.RoutedTuples > 0 {
		r.set("cluster.replica_share", float64(cm.ReplicaTuples)/float64(cm.RoutedTuples), cm.RoutedTuples)
	}
	r.set("cluster.admission_drops", float64(cm.AdmissionDrops), 0)
	r.set("cluster.p99_ingest_us", float64(cm.P99Ingest)/1e3, 0)
	var wal clash.WALStats
	for _, e := range engines {
		s := e.WALStats()
		wal.WALBytes += s.WALBytes
		wal.CheckpointBytes += s.CheckpointBytes
		wal.Checkpoints += s.Checkpoints
	}
	r.set("recovery.wal_bytes_per_tuple", float64(wal.WALBytes)/float64(end.ingested), end.ingested)
	r.set("recovery.checkpoints", float64(wal.Checkpoints), 0)
	r.set("recovery.checkpoint_bytes", float64(wal.CheckpointBytes), 0)
	r.Digest = c.snk.digest()
	r.Attempted = int64(n)
	r.Failed += cm.AdmissionDrops + end.shed

	// Crash: the cluster goes away without Close — no final checkpoint,
	// the WAL tail past the last checkpoint left for replay — and every
	// shard comes back through Recover.
	stored := make([]int64, len(cm.Shards))
	for i, s := range cm.Shards {
		stored[i] = s.Stored
	}
	cl.Stop()
	stopped = true
	endCrash := c.tr.begin("harness.crash")
	var replayed, restored int
	recoverStart := nanos()
	for i := range stored {
		endShard := c.tr.begin("recovery.recover")
		cfg, err := c.engineConfig(filepath.Join(c.dir, fmt.Sprintf("shard-%d", i)), o.traced)
		if err != nil {
			return nil, err
		}
		// Replayed results were delivered before the crash; they are
		// regenerated into a sink nobody reads.
		cfg.OnResult = map[string]func(*clash.Tuple){"q1": func(*clash.Tuple) {}, "q2": func(*clash.Tuple) {}}
		eng, rs, err := clash.Recover(cfg)
		endShard()
		if err != nil {
			r.fail(1, "recover shard %d: %v", i, err)
			continue
		}
		defer eng.Close()
		replayed += rs.ReplayedIngests
		restored += rs.RestoredTuples
		if got := eng.Metrics().Stored; got != stored[i] {
			r.fail(1, "shard %d holds %d tuples after recovery, %d before the crash", i, got, stored[i])
		}
	}
	recoverNS := nanos() - recoverStart
	endCrash()
	r.set("harness.recover_s", float64(recoverNS)/1e9, clusterShards)
	r.set("recovery.recover_ms_per_shard", float64(recoverNS)/1e6/clusterShards, clusterShards)
	r.set("recovery.replayed_ingests", float64(replayed), 0)
	r.set("recovery.restored_tuples", float64(restored), 0)
	r.set("harness.gen_ms", genMS, 0)

	// Correctness: the inputs up to the end of the paced phase through one
	// synchronous engine; every input when asked for the full check.
	cfg, err := c.engineConfig("", false)
	if err != nil {
		return nil, err
	}
	checkUpTo := warm + paced
	if o.full {
		checkUpTo, atCheck = n, r.Digest
	}
	if o.full || !checkStored(r, o, clusterQueries) {
		reference := func(upTo int, onResult map[string]func(*clash.Tuple)) error {
			cfg.WAL, cfg.Substrate, cfg.Flow, cfg.Synchronous = nil, clash.SubstrateAuto, clash.FlowConfig{}, true
			cfg.StateBackend = clash.BackendContainer
			cfg.OnResult = onResult
			return runReference(cfg, in, upTo)
		}
		if err := checkReference(r, atCheck, clusterQueries, "one synchronous engine", checkUpTo, n, reference); err != nil {
			return nil, err
		}
	}
	r.set("harness.failed_share", float64(r.Failed)/float64(r.Attempted), 0)

	if o.traced {
		queries, cat := cfg.Queries, cfg.Catalog
		if err := probeOptimizer(c.tr, r, optimizerInputs{queries: queries, est: cfg.InitialEstimates, opts: cfg.Optimizer},
			func() error { _, _, err := clash.ParseWorkload(clusterWorkload); return err }); err != nil {
			return nil, err
		}
		probeTuples(c.tr, r, in, cat, allPreds(queries), c.epoch)
		if err := probeWAL(c.tr, r, in, c.scratch); err != nil {
			return nil, err
		}
		if err := probeBuildPlan(c.tr, r, queries, cat, clusterShards); err != nil {
			return nil, err
		}
		traceMetrics(r, c.tr, "cluster.ingest", measured)
		if r.TracePath, err = c.tr.write(o.outDir); err != nil {
			return nil, err
		}
	}
	return r, nil
}
