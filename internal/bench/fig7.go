// Package bench regenerates every table and figure of the paper's
// evaluation section: the TPC-H multi-query comparison (Fig. 7), the
// adaptive execution time series (Fig. 8), and the ILP scaling study
// (Fig. 9). Each experiment returns printable series; cmd/clash-bench
// prints them. The series carry clock readings for the printer, but
// nothing here or in this package's tests compares one: timings are
// judged by benchmark/ alone.
package bench

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"clash/internal/core"
	"clash/internal/runtime"
	"clash/internal/topology"
	"clash/internal/tpch"
)

// solveNodes bounds every solve of the experiments that do not plan
// through tpch.Fixture (Figs. 8 and 9, the ablations): a count of
// explored nodes, never a clock, like the warm start's local search — so
// an experiment's plans, and the counts derived from them, repeat on
// any machine.
const solveNodes = 20_000

func countedBudget(o core.Options) core.Options {
	o.Solver.MaxNodes = solveNodes
	return o
}

// Strategy names the five processing strategies of Fig. 7 (Sec. VII-A).
type Strategy string

// The compared strategies: independent deployment and naive sharing on
// two engine profiles, plus CLASH's global multi-query optimization.
const (
	FlinkIndependent Strategy = "FI"
	StormIndependent Strategy = "SI"
	FlinkShared      Strategy = "FS"
	StormShared      Strategy = "SS"
	CLASHMQO         Strategy = "CMQO"
)

// Strategies lists the Fig. 7 strategies in presentation order.
func Strategies() []Strategy {
	return []Strategy{FlinkIndependent, StormIndependent, FlinkShared, StormShared, CLASHMQO}
}

// engine overhead profiles: the per-message busy-work loops emulating
// the two engines' per-tuple costs (Flink's throughput is "a smidge
// higher", Sec. VII-A).
func overheadLoops(s Strategy) int64 {
	switch s {
	case FlinkIndependent, FlinkShared:
		return 0
	default:
		return 48
	}
}

// Fig7Config parameterizes the TPC-H multi-query experiment.
type Fig7Config struct {
	SF          float64 // TPC-H scale factor (paper: 10; default 0.002)
	NumQueries  int     // 5 or 10 (Fig. 7a workloads)
	Parallelism int     // store parallelism (default 2)
	Seed        uint64
}

func (c *Fig7Config) fill() {
	if c.SF == 0 {
		c.SF = 0.002
	}
	if c.NumQueries == 0 {
		c.NumQueries = 5
	}
	if c.Parallelism == 0 {
		c.Parallelism = 2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Fig7Result is one bar of Figs. 7b–7d.
type Fig7Result struct {
	Strategy      Strategy
	ThroughputTPS float64       // Fig. 7b
	MemoryBytes   int64         // Fig. 7c — resident state incl. index overhead
	AvgLatency    time.Duration // Fig. 7d
	ProbeTuples   int64
	Candidates    int64 // stored rows the local indices handed those probes (Snapshot.ProbeCandidates)
	FilterRejects int64 // per-epoch index lookups the index filters spared them (Snapshot.ProbeFilterRejects)
	Results       int64
	EvictedEpochs int64 // must stay 0: the Fig. 7 workload fits in memory
	Stores        int
}

// fig7Setup is the Fig. 7 workload with its plans solved once: the
// per-query plans the four baseline strategies share and the joint
// CMQO plan.
type fig7Setup struct {
	*tpch.Fixture
	individual []*core.Plan
	joint      *core.Plan
}

func newFig7Setup(cfg Fig7Config) (*fig7Setup, error) {
	queries := tpch.Fig7Queries()
	if cfg.NumQueries >= 10 {
		queries = tpch.Fig7TenQueries()
	}
	fx, err := tpch.NewFixture(queries, cfg.SF, cfg.Seed, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	s := &fig7Setup{Fixture: fx}
	if s.individual, err = fx.Individual(); err != nil {
		return nil, err
	}
	if s.joint, err = fx.Joint(); err != nil {
		return nil, err
	}
	return s, nil
}

// topology compiles the plans a strategy deploys.
func (s *fig7Setup) topology(st Strategy) (*topology.Config, error) {
	if st == CLASHMQO {
		return s.Compile(true, s.joint)
	}
	return s.Compile(st == FlinkShared || st == StormShared, s.individual...)
}

// Fig7 runs all five strategies over the TPC-H workload and reports one
// result per strategy.
func Fig7(cfg Fig7Config) ([]Fig7Result, error) {
	cfg.fill()
	setup, err := newFig7Setup(cfg)
	if err != nil {
		return nil, err
	}
	return setup.run()
}

func (s *fig7Setup) run() ([]Fig7Result, error) {
	var out []Fig7Result
	for _, st := range Strategies() {
		r, err := runFig7Strategy(st, s)
		if err != nil {
			return nil, fmt.Errorf("bench: strategy %s: %w", st, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runFig7Strategy(s Strategy, setup *fig7Setup) (Fig7Result, error) {
	topo, err := setup.topology(s)
	if err != nil {
		return Fig7Result{}, err
	}
	m, wall, err := RunStrategy(setup.Fixture, s, topo)
	if err != nil {
		return Fig7Result{}, err
	}
	return Fig7Result{
		Strategy:      s,
		ThroughputTPS: float64(m.Ingested) / wall.Seconds(),
		MemoryBytes:   m.StoreBytes,
		AvgLatency:    m.AvgLatency,
		ProbeTuples:   m.ProbeSent,
		Candidates:    m.ProbeCandidates,
		FilterRejects: m.ProbeFilterRejects,
		Results:       m.Results,
		EvictedEpochs: m.EvictedEpochs,
		Stores:        len(topo.Stores),
	}, nil
}

// RunStrategy ingests the fixture's records into an engine running topo
// under strategy s's engine profile, and returns the engine's counters
// and the wall time of ingest and drain. Execution is synchronous: exact
// and deterministic, so all strategies compute identical result sets and
// the throughput measure is the serialized handling work (messages ×
// per-message cost) — exactly the quantity the probe-cost model
// optimizes.
func RunStrategy(fx *tpch.Fixture, s Strategy, topo *topology.Config) (runtime.Snapshot, time.Duration, error) {
	eng := runtime.New(runtime.Config{Catalog: fx.Catalog, Substrate: runtime.SubstrateSynchronous})
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
	m := eng.Metrics().Snapshot()
	// The profile's per-message overhead, paid in one piece: every
	// message ran on this goroutine, so the wall time grows by what
	// paying it per handled message would add.
	var x uint64
	for i := range overheadLoops(s) * m.Messages {
		x += uint64(i) ^ x>>3
	}
	goruntime.KeepAlive(x)
	return m, time.Since(start), nil
}

// FormatFig7 renders the results as the rows of Figs. 7b–7d.
func FormatFig7(results []Fig7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %14s %14s %12s %14s %16s %13s %10s %8s\n",
		"strat", "throughput t/s", "memory MiB", "latency", "probe tuples", "candidates/probe", "rejects/probe", "results", "stores")
	for _, r := range results {
		probes := float64(max(r.ProbeTuples, 1))
		fmt.Fprintf(&b, "%-6s %14.0f %14.2f %12v %14d %16.3f %13.3f %10d %8d\n",
			r.Strategy, r.ThroughputTPS, float64(r.MemoryBytes)/(1<<20),
			r.AvgLatency.Round(time.Microsecond), r.ProbeTuples,
			float64(r.Candidates)/probes, float64(r.FilterRejects)/probes, r.Results, r.Stores)
	}
	return b.String()
}
