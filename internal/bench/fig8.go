package bench

import (
	"fmt"
	"strings"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/tuple"
	"clash/internal/workload"
)

// Fig8Config parameterizes the adaptation experiments (Sec. VII-B) at
// laptop scale. The paper runs 100k t/s (8a) and 5M/5k t/s (8b) on a
// cluster with 5 s windows over 30 s; the defaults here keep the same
// proportions at lower rates and a compressed wall clock.
type Fig8Config struct {
	Rate        float64       // per-relation rate, variant a (default 2000 t/s)
	FastRate    float64       // R's rate, variant b (default 5000 t/s)
	SlowRate    float64       // S/T/U rate, variant b (default 50 t/s)
	Window      time.Duration // join window (default 1s)
	Epoch       time.Duration // epoch length (default 250ms)
	Before      time.Duration // phase-1 logical duration (default 3s)
	After       time.Duration // phase-2 logical duration (default 3s)
	Bucket      time.Duration // latency reporting bucket (default 250ms)
	Fanout      int64         // spike fanout, variant a (default 100)
	MemoryLimit int64         // bytes; static plans die above it (default 256 MiB)
	Parallelism int
	Seed        uint64
}

func (c *Fig8Config) fill() {
	if c.Rate == 0 {
		c.Rate = 2000
	}
	if c.FastRate == 0 {
		c.FastRate = 5000
	}
	if c.SlowRate == 0 {
		c.SlowRate = 50
	}
	if c.Window == 0 {
		c.Window = 750 * time.Millisecond
	}
	if c.Epoch == 0 {
		c.Epoch = 250 * time.Millisecond
	}
	if c.Before == 0 {
		c.Before = 2 * time.Second
	}
	if c.After == 0 {
		// Long enough past the shift for the two-epoch decision delay
		// (Fig. 5) plus a full window of MIR warm-up (Fig. 6), like the
		// paper's 15 s of post-shift runtime against a 5 s window.
		c.After = 4500 * time.Millisecond
	}
	if c.Bucket == 0 {
		c.Bucket = 250 * time.Millisecond
	}
	if c.Fanout == 0 {
		c.Fanout = 100
	}
	if c.MemoryLimit == 0 {
		c.MemoryLimit = 256 << 20
	}
	if c.Parallelism == 0 {
		c.Parallelism = 2
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
}

// Fig8Point is one time-bucket of the latency series in Figs. 8a/8b.
type Fig8Point struct {
	At      time.Duration // logical time of the bucket end
	Avg     time.Duration // average end-to-end result latency in the bucket
	Lag     time.Duration // average per-tuple processing lag (the paper's signal)
	Results int64
	Probes  int64 // probe tuples sent during the bucket
	Mem     int64 // bytes materialized in stores at the bucket boundary
	Failed  bool  // the engine died (static under the 8a spike)
}

// Fig8 runs one adaptation experiment variant ('a' or 'b') in either
// adaptive or static mode and returns the latency series.
func Fig8(variant byte, adaptive bool, cfg Fig8Config) ([]Fig8Point, error) {
	cfg.fill()
	q, cat := workload.FourWayQuery(cfg.Window)

	var phases []workload.Phase
	switch variant {
	case 'a':
		phases = workload.Fig8aPhases(cfg.Rate, cfg.Window, cfg.Before, cfg.After, cfg.Fanout)
	case 'b':
		phases = workload.Fig8bPhases(cfg.FastRate, cfg.SlowRate, cfg.Window, cfg.Before, cfg.After)
	default:
		return nil, fmt.Errorf("bench: unknown Fig. 8 variant %q", variant)
	}
	records := workload.GenLinear(phases, cfg.Seed)

	// Initial estimates: per the paper, seeded with a slightly higher
	// S–T selectivity so the initial plan is ⟨S,R,T,U⟩ / ⟨T,U,R,S⟩
	// (probing S–T late).
	est := stats.NewEstimates(0.001)
	for _, rel := range []string{"R", "S", "T", "U"} {
		est.SetRate(rel, phases[0].Rates[rel])
	}
	st := query.Predicate{Left: query.Attr{Rel: "S", Name: "b"}, Right: query.Attr{Rel: "T", Name: "b"}}
	est.SetSelectivity(st, 0.002)

	col := stats.NewCollector(256, 128, cfg.Seed)
	eng := runtime.New(runtime.Config{
		Catalog:          cat,
		DefaultWindow:    cfg.Window,
		EpochLength:      cfg.Epoch,
		MemoryLimitBytes: cfg.MemoryLimit,
		// A grant the run cannot exhaust never gates admission: an
		// overloaded static plan buffers until the memory budget kills
		// it, as the paper's workers do.
		Substrate: runtime.SubstrateFlow,
		Flow:      runtime.FlowConfig{MailboxCredits: 1 << 30},
		Observer:  func(rel string, t *tuple.Tuple) { col.Observe(rel, t) },
	})
	ctl, err := runtime.NewController(eng, runtime.ControllerConfig{
		// Re-optimization happens on the hot path at every epoch
		// boundary, so each solve is bounded — by nodes: with
		// MaterializationCost branch-and-bound does not close the gap on
		// this one 4-way query within seconds, and a time limit made
		// every epoch cost exactly the limit.
		Optimizer: core.NewOptimizer(countedBudget(core.Options{
			StoreParallelism: cfg.Parallelism,
			// Price the insertion of feeding results into MIR stores:
			// without it the exploding R⋈S intermediate looks free to
			// materialize (Sec. IV: stores are beneficial when the
			// intermediate result is small, not when it explodes).
			MaterializationCost: true,
		})),
		Collector: col,
		Shared:    true,
		Static:    !adaptive,
	}, []*query.Query{q}, est)
	if err != nil {
		return nil, err
	}
	defer eng.Stop()

	var out []Fig8Point
	bucketEnd := cfg.Bucket
	var lastProbes int64
	for _, r := range records {
		if err := eng.Ingest(r.Relation, r.TS, r.Vals...); err != nil {
			// Terminal failure (memory overflow): emit a failed point
			// and stop, like the paper's static workers dying.
			out = append(out, Fig8Point{At: time.Duration(r.TS), Failed: true})
			return out, nil
		}
		if err := ctl.Tick(); err != nil {
			return nil, err
		}
		if time.Duration(r.TS) >= bucketEnd {
			// Sample lag BEFORE draining: the backlog is the signal.
			m := eng.Metrics().Snapshot()
			eng.Drain()
			out = append(out, Fig8Point{
				At:      bucketEnd,
				Avg:     m.AvgLatency,
				Lag:     m.AvgLag,
				Results: m.Results,
				Probes:  m.ProbeSent - lastProbes,
				Mem:     m.StoreBytes,
			})
			lastProbes = m.ProbeSent
			eng.Metrics().ResetLatency()
			for time.Duration(r.TS) >= bucketEnd {
				bucketEnd += cfg.Bucket
			}
		}
	}
	eng.Drain()
	m := eng.Metrics().Snapshot()
	out = append(out, Fig8Point{
		At:      bucketEnd,
		Avg:     m.AvgLatency,
		Lag:     m.AvgLag,
		Results: m.Results,
		Probes:  m.ProbeSent - lastProbes,
		Mem:     m.StoreBytes,
	})
	return out, nil
}

// FormatFig8 renders adaptive and static series side by side: per-tuple
// processing lag (the paper's latency signal) with the result latency in
// parentheses.
func FormatFig8(adaptive, static []Fig8Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %26s %26s\n", "t", "adaptive lag (result)", "static lag (result)")
	n := len(adaptive)
	if len(static) > n {
		n = len(static)
	}
	cell := func(pts []Fig8Point, i int) string {
		if i >= len(pts) {
			return "-"
		}
		if pts[i].Failed {
			return "FAILED(OOM)"
		}
		return fmt.Sprintf("%v (%v)",
			pts[i].Lag.Round(time.Microsecond), pts[i].Avg.Round(time.Microsecond))
	}
	at := func(i int) time.Duration {
		if i < len(adaptive) {
			return adaptive[i].At
		}
		return static[i].At
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%10v %26s %26s\n", at(i), cell(adaptive, i), cell(static, i))
	}
	return b.String()
}
