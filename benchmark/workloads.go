package main

import (
	"fmt"
	"sort"
	"time"

	"clash"
	"clash/internal/broker"
	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
	"clash/internal/tpch"
	"clash/internal/tuple"
	"clash/internal/workload"
)

// The frozen sizes. A run's length is fixed in tuples and steps, not in
// seconds: at scale 1 each measured window takes about runSeconds on a
// 2-core sandbox at the commit that defined the benchmark, and the
// counts a run reports (probe tuples, state bytes, digests) repeat
// exactly. `-seconds s` scales every size by s/runSeconds.
const (
	runSeconds = 10

	// tpch-mqo: the whole data set streams through once; the first 0.3
	// of it is the warm-up that fills the window.
	tpchSF           = 0.0155
	tpchDataSeed     = 1
	tpchJitter       = 0.005
	tpchWindowShare  = 0.3
	tpchEpochs       = 16
	tpchMaxNodes     = 20_000
	tpchCheckedShare = 0.38 // the reference covers the warm-up and the head of the window

	// The two-way workloads estimate from this many leading inputs.
	estimateInputs = 20_000

	// longstate-probe
	longWindow   = 200_000
	longEpochs   = 64
	longKeys     = 100_000
	longZipf     = 0.6
	longMeasured = 1_300_000
	longChecked  = longWindow + 100_000

	// cluster-paced
	clusterShards         = 2
	clusterWindow         = 20_000
	clusterEpochs         = 16
	clusterKeys           = 100_000
	clusterZipf           = 0.01
	clusterCheckpoint     = 4096
	clusterPacedRate      = 40_000    // inputs per second: a quarter of what the seed commit sustains, a third when the host is busy
	clusterPacedInputs    = 200_000   // the paced phase: 5 s at the rate above
	clusterSaturateInputs = 1_000_000 // the closed-loop phase

	// query-churn
	churnRelations = 40
	churnRate      = 100
	churnInstalled = 24
	churnPinned    = 10 // of the installed, never expired
	churnQuerySize = 3
	// The queries and their schedule are part of the workload, like the
	// ten TPC-H queries: the run's seed draws the tuples, not the queries.
	churnQuerySeed = 1
	churnSteps     = 100
	churnEvery     = 500
	churnWindow    = 8_000
	churnEpochs    = 16
	churnKeys      = 300
	churnMaxNodes  = 2_000
	churnParallel  = 2
	churnCap       = 12
)

func scaled(n int, scale float64) int {
	if v := int(float64(n)*scale + 0.5); v > 1 {
		return v
	}
	return 1
}

// estimate runs the statistics pipeline over inputs [0, upTo) the way
// the adaptive controller would: rates from counts, selectivities from
// joins of reservoir samples. One window's worth of inputs is sealed as
// one time unit, so a rate reads "tuples per window".
func estimate(cat *query.Catalog, queries []*query.Query, in *stream, upTo int) *stats.Estimates {
	col := stats.NewCollector(512, 256, 7)
	schemas := map[string]*tuple.Schema{}
	for _, name := range cat.Names() {
		schemas[name] = tuple.NewSchema(cat.Relation(name).QualifiedAttrs()...)
	}
	for i := 0; i < upTo; i++ {
		rel, vals := in.at(i)
		col.Observe(rel, tuple.New(schemas[rel], tuple.Time(i+1), vals...))
	}
	return col.Seal(time.Second, allPreds(queries))
}

func queryNames(qs []*query.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Name
	}
	return out
}

// runReference starts an engine on cfg, feeds it inputs [0, upTo) and
// stops it.
func runReference(cfg clash.Config, in *stream, upTo int) error {
	eng, err := clash.Start(cfg)
	if err != nil {
		return err
	}
	defer eng.Stop()
	if err := feed(eng, in, 0, upTo); err != nil {
		return err
	}
	eng.Drain()
	return eng.Failure()
}

// ---------------------------------------------------------------- tpch-mqo

const tpchWhy = "the paper's Fig. 7 setting: ten TPC-H joins under one jointly optimized plan; multi-hop probe chains, shared stores and routing do nearly all the work"

func tpchTables(queries []*query.Query) []string {
	var out []string
	seen := map[string]bool{}
	for _, q := range queries {
		for _, r := range q.Relations {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// tpchCanonical streams the tables the ten queries read, interleaved by
// event time as a stream processor would see them. The data set is the
// one dbgen seed tpchDataSeed gives, as TPC-H's own generator fixes its
// data: at this scale factor another dbgen seed is another workload (the
// 5 region and 25 nation tuples each complete thousands of results when
// they arrive, and which results they complete moved the per-query
// latency medians by 8-18 % between data seeds on a quiet machine).
func tpchCanonical(scale float64) (*stream, error) {
	tables := tpchTables(tpch.Fig7TenQueries())
	b := broker.New()
	if err := tpch.FillBroker(b, tpchSF*scale, tpchDataSeed, time.Second, tables); err != nil {
		return nil, err
	}
	recs := b.Interleave(tables...)
	index := map[string]int{}
	for i, t := range tables {
		index[t] = i
	}
	in := newStream(tables, len(recs))
	for _, r := range recs {
		in.add(index[r.Relation], r.Vals...)
	}
	return in, nil
}

// tpchInputs is the canonical stream with every arrival moved by up to
// ±tpchJitter of the stream's length, drawn from the run's seed: the
// arrival order, what each window holds and so the results differ from
// seed to seed, the data's skew does not.
func tpchInputs(canonical *stream, seed uint64) *stream {
	n := canonical.len()
	r := rng.New(seed ^ 0x7c4a11)
	at := make([]float64, n)
	order := make([]int, n)
	for i := range at {
		at[i] = float64(i) + (2*r.Float64()-1)*tpchJitter*float64(n)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return at[order[a]] < at[order[b]] })
	in := newStream(canonical.names, n)
	for _, i := range order {
		in.add(int(canonical.rel[i]), canonical.vals[canonical.off[i]:canonical.off[i+1]]...)
	}
	return in
}

func tpchMQO(o runOpts) (*result, error) {
	t0 := time.Now()
	// The optimizer plans from statistics of the canonical stream, as a
	// deployment plans from yesterday's: the plan is then the same for
	// every seed, and the seed varies the order the plan meets.
	calib, err := tpchCanonical(o.scale)
	if err != nil {
		return nil, err
	}
	in := tpchInputs(calib, o.seed)
	genMS := float64(time.Since(t0)) / 1e6

	n := in.len()
	window := int(tpchWindowShare * float64(n))
	epoch := window / tpchEpochs
	if epoch < 1 {
		return nil, fmt.Errorf("tpch-mqo: %d inputs are too few for %d epochs", n, tpchEpochs)
	}
	config := func(so startOpts) clash.Config {
		queries, cat := tpch.Fig7TenQueries(), tpch.Catalog()
		cfg := clash.Config{
			Queries: queries, Catalog: cat,
			DefaultWindow:    time.Duration(window),
			EpochLength:      time.Duration(epoch),
			Synchronous:      true,
			InitialEstimates: estimate(cat, queries, calib, min(window, calib.len())),
			MeasuredCosts:    so.measuredCosts,
			OnResult:         so.onResult,
		}
		// A node budget, not a time limit: the search explores the same
		// tree on every run, so plans and counts repeat.
		cfg.Optimizer.Solver.MaxNodes = tpchMaxNodes
		cfg.Optimizer.DeterministicWarmStart = true
		return cfg
	}
	sp := &syncSpec{
		name: "tpch-mqo", in: in, genMS: genMS,
		warm: window, epoch: epoch, latStride: 1,
		queries: queryNames(tpch.Fig7TenQueries()),
		sizes: map[string]int64{
			"inputs": int64(n), "warmup_inputs": int64(window), "measured_inputs": int64(n - window),
			"window_inputs": int64(window), "epoch_inputs": int64(epoch), "queries": 10, "max_nodes": tpchMaxNodes,
		},
		start: func(so startOpts) (*clash.Engine, error) { return clash.Start(config(so)) },

		checkUpTo: int(tpchCheckedShare * float64(n)),
		checked:   queryNames(tpch.Fig7TenQueries()),
		checkedBy: "independent per-query plans",
		reference: func(upTo int, onResult map[string]func(*clash.Tuple)) error {
			cfg := config(startOpts{onResult: onResult})
			cfg.Independent = true
			return runReference(cfg, in, upTo)
		},
	}
	sp.probes = func(tr *tracer, r *result) error {
		cfg := config(startOpts{})
		err := probeOptimizer(tr, r, optimizerInputs{queries: cfg.Queries, est: cfg.InitialEstimates, opts: cfg.Optimizer},
			func() error { tpch.Fig7TenQueries(); return nil })
		probeTuples(tr, r, in, cfg.Catalog, allPreds(cfg.Queries), epoch)
		return err
	}
	return runSync(sp, o)
}

// --------------------------------------------------------- longstate-probe

const longWhy = "long join state read-heavily: a two-way join over a 200k-tuple window in 64 epochs on the columnar backend; index lookups and chain walks dominate, optimizer, cluster and WAL idle"

const longWorkload = "q1: R(a) S(a)"

// longInputs draws S and R tuples 4:1 over zipf-distributed keys.
func longInputs(seed uint64, scale float64) *stream {
	n := longWindow + scaled(longMeasured, scale)
	r := rng.New(seed ^ 0x10f657a7e)
	z := rng.NewZipf(r, longKeys, longZipf)
	in := newStream([]string{"R", "S"}, n)
	for i := 0; i < n; i++ {
		rel := 1
		if r.Intn(5) == 0 {
			rel = 0
		}
		in.add(rel, clash.Int(int64(z.Draw())))
	}
	return in
}

func longstateProbe(o runOpts) (*result, error) {
	t0 := time.Now()
	in := longInputs(o.seed, o.scale)
	n := in.len()
	genMS := float64(time.Since(t0)) / 1e6

	epoch := longWindow / longEpochs
	config := func(so startOpts, backend clash.StateBackendKind) (clash.Config, error) {
		queries, cat, err := clash.ParseWorkload(longWorkload)
		if err != nil {
			return clash.Config{}, err
		}
		return clash.Config{
			Queries: queries, Catalog: cat,
			DefaultWindow:    longWindow,
			EpochLength:      time.Duration(epoch),
			Synchronous:      true,
			StateBackend:     backend,
			InitialEstimates: estimate(cat, queries, in, estimateInputs),
			MeasuredCosts:    so.measuredCosts,
			OnResult:         so.onResult,
		}, nil
	}
	checkUpTo := longChecked
	if checkUpTo > n {
		checkUpTo = n
	}
	sp := &syncSpec{
		name: "longstate-probe", in: in, genMS: genMS,
		warm: longWindow, epoch: epoch, latStride: 8,
		queries: []string{"q1"},
		sizes: map[string]int64{
			"inputs": int64(n), "warmup_inputs": longWindow, "measured_inputs": int64(n - longWindow),
			"window_inputs": longWindow, "epoch_inputs": int64(epoch), "keys": longKeys, "queries": 1,
		},
		start: func(so startOpts) (*clash.Engine, error) {
			cfg, err := config(so, clash.BackendColumnar)
			if err != nil {
				return nil, err
			}
			return clash.Start(cfg)
		},

		checkUpTo: checkUpTo,
		checked:   []string{"q1"},
		checkedBy: "the container backend",
		reference: func(upTo int, onResult map[string]func(*clash.Tuple)) error {
			cfg, err := config(startOpts{onResult: onResult}, clash.BackendContainer)
			if err != nil {
				return err
			}
			return runReference(cfg, in, upTo)
		},
	}
	sp.probes = func(tr *tracer, r *result) error {
		cfg, err := config(startOpts{}, clash.BackendColumnar)
		if err != nil {
			return err
		}
		err = probeOptimizer(tr, r, optimizerInputs{queries: cfg.Queries, est: cfg.InitialEstimates, opts: cfg.Optimizer},
			func() error { _, _, err := clash.ParseWorkload(longWorkload); return err })
		probeTuples(tr, r, in, cfg.Catalog, allPreds(cfg.Queries), epoch)
		return err
	}
	return runSync(sp, o)
}

// ------------------------------------------------------------- query-churn

const churnWhy = "queries arrive and expire: 24 random 3-way joins over 40 relations, one AddQuery or RemoveQuery every 500 tuples with incremental re-optimization; mir, ilp, core and Install dominate"

// churnStepsAt is the number of churn steps at the scale, even so that
// arrivals and expiries balance and the installed set keeps its size.
func churnStepsAt(scale float64) int {
	steps := scaled(churnSteps, scale)
	return steps + steps%2
}

// churnInputs draws a uniform stream over the environment's relations.
func churnInputs(seed uint64, steps int) *stream {
	n := churnWindow + steps*churnEvery
	r := rng.New(seed ^ 0xc4a12)
	in := newStream(workload.NewEnv(churnRelations, churnRate).Catalog().Names(), n)
	for i := 0; i < n; i++ {
		in.add(r.Intn(churnRelations),
			clash.Int(int64(r.Intn(churnKeys))), clash.Int(int64(r.Intn(churnKeys))), clash.Int(int64(r.Intn(churnKeys))))
	}
	return in
}

func queryChurn(o runOpts) (*result, error) {
	steps := churnStepsAt(o.scale)
	t0 := time.Now()
	env := workload.NewEnv(churnRelations, churnRate)
	pool := env.RandomQueries(churnInstalled+steps/2, churnQuerySize, churnQuerySeed)
	if len(pool) < churnInstalled+steps/2 {
		return nil, fmt.Errorf("query-churn: the query generator came up short (%d)", len(pool))
	}
	// The first churnPinned queries stay installed throughout: they are
	// what the churn-free reference answers.
	installed, fresh := pool[:churnInstalled], pool[churnInstalled:]
	never := installed[:churnPinned]

	in := churnInputs(o.seed, steps)
	n := in.len()
	genMS := float64(time.Since(t0)) / 1e6

	epoch := churnWindow / churnEpochs
	config := func(so startOpts, queries []*query.Query) clash.Config {
		cfg := clash.Config{
			Queries: queries, Catalog: env.Catalog(),
			DefaultWindow:    churnWindow,
			EpochLength:      time.Duration(epoch),
			Synchronous:      true,
			IncrementalReopt: true,
			InitialEstimates: env.Estimates(),
			OnResult:         so.onResult,
			// MeasuredCosts stays off even when traced: calibration
			// would change the plans this workload is about.
		}
		cfg.Optimizer = core.Options{DeterministicWarmStart: true, MaxCandidatesPerGroup: churnCap}
		cfg.Optimizer.Solver.MaxNodes = churnMaxNodes
		cfg.Optimizer.Solver.Parallel = churnParallel
		return cfg
	}

	// The schedule: alternately admit a fresh query and retire the oldest.
	plan := &churnPlan{every: churnEvery}
	replay := [][]*query.Query{installed}
	active := append([]*query.Query(nil), installed...)
	for s := 0; s < steps; s++ {
		if s%2 == 0 {
			q := fresh[s/2]
			plan.steps = append(plan.steps, func(e *clash.Engine) error { return e.AddQuery(q) })
			active = append(active, q)
		} else {
			name := active[churnPinned].Name // the oldest that may expire
			plan.steps = append(plan.steps, func(e *clash.Engine) error { return e.RemoveQuery(name) })
			active = append(active[:churnPinned:churnPinned], active[churnPinned+1:]...)
		}
		if s < 10 {
			replay = append(replay, append([]*query.Query(nil), active...))
		}
	}

	sp := &syncSpec{
		name: "query-churn", in: in, genMS: genMS,
		warm: churnWindow, epoch: epoch, latStride: 1,
		// A slice holds one arrival and one expiry: the two cost
		// differently, and slices are compared with each other.
		slices:  steps / 2,
		queries: queryNames(pool), churn: plan,
		sizes: map[string]int64{
			"inputs": int64(n), "warmup_inputs": churnWindow, "measured_inputs": int64(n - churnWindow),
			"window_inputs": churnWindow, "epoch_inputs": int64(epoch), "relations": churnRelations,
			"queries": churnInstalled, "pinned_queries": churnPinned, "steps": int64(steps), "inputs_per_step": churnEvery, "max_nodes": churnMaxNodes,
		},
		start: func(so startOpts) (*clash.Engine, error) { return clash.Start(config(so, installed)) },

		checkUpTo: n,
		checked:   queryNames(never),
		checkedBy: "a churn-free engine over the never-churned queries",
		reference: func(upTo int, onResult map[string]func(*clash.Tuple)) error {
			cfg := config(startOpts{onResult: onResult}, never)
			cfg.IncrementalReopt = false
			return runReference(cfg, in, upTo)
		},
	}
	sp.probes = func(tr *tracer, r *result) error {
		cfg := config(startOpts{}, installed)
		err := probeOptimizer(tr, r, optimizerInputs{queries: installed, est: cfg.InitialEstimates, opts: cfg.Optimizer, churn: replay},
			func() error { env.RandomQueries(churnInstalled, churnQuerySize, churnQuerySeed); return nil })
		probeTuples(tr, r, in, cfg.Catalog, allPreds(installed), epoch)
		return err
	}
	return runSync(sp, o)
}
