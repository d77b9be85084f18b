package bench

// Overload survival: the same sustained-ingest stream driven through
// the flow substrate under one memory budget and three credit
// configurations. A grant the stream cannot exhaust reproduces the
// paper's Fig. 8a failure — overloaded workers buffer until the budget
// kills the engine — while a bounded grant's credit-based backpressure
// keeps queueing bounded and the engine alive: lossless under
// BlockOnOverload (the source throttles), lossy-but-live under
// ShedOnOverload (DESIGN.md §8).

import (
	"fmt"
	"strings"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// OverloadConfig parameterizes the overload-survival scenario.
type OverloadConfig struct {
	Tuples           int           // stream length (default 30000)
	Keys             int64         // join-key domain (default 32)
	Window           time.Duration // per-relation window, logical (default 64ns-units ×1000)
	MemoryLimitBytes int64         // shared budget (default 1 MiB)
	OverheadLoops    int           // per-message busy work slowing consumers (default 30000)
	MailboxCredits   int           // per-task credit grant of flow-block and flow-shed (default 32)
	Workers          int           // flow substrate worker pool (default GOMAXPROCS)
	Parallelism      int           // store parallelism (default 2)
	Seed             uint64
}

func (c *OverloadConfig) fill() {
	if c.Tuples == 0 {
		c.Tuples = 30000
	}
	if c.Keys == 0 {
		c.Keys = 32
	}
	if c.Window == 0 {
		// Timestamps advance ~2 logical units per tuple, so this keeps
		// a few hundred tuples of windowed state — overload must come
		// from queueing, not from legitimate store growth.
		c.Window = 512
	}
	if c.MemoryLimitBytes == 0 {
		c.MemoryLimitBytes = 1 << 20
	}
	if c.OverheadLoops == 0 {
		c.OverheadLoops = 30000
	}
	if c.MailboxCredits == 0 {
		c.MailboxCredits = 32
	}
	if c.Parallelism == 0 {
		c.Parallelism = 2
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
}

// OverloadResult is one credit configuration's run under the shared budget.
type OverloadResult struct {
	Substrate   string // "unbounded" (a grant the stream cannot exhaust), "flow-block", "flow-shed"
	Survived    bool
	FailedAt    int   // tuple index of death (-1 when survived)
	Ingested    int64 // tuples admitted past the gate
	Shed        int64 // tuples dropped at the gate
	Results     int64
	PeakQueued  int64 // high-water queued messages across mailboxes
	PeakQueuedB int64 // high-water queued bytes
	Wall        time.Duration
}

// OverloadSurvival runs the scenario on the three flow configurations
// and reports how each degrades.
func OverloadSurvival(cfg OverloadConfig) ([]OverloadResult, error) {
	cfg.fill()
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		return nil, err
	}
	est := stats.NewEstimates(0.05)
	for _, name := range cat.Names() {
		est.SetRate(name, 1000)
	}
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: cfg.Parallelism}).Optimize(qs, est)
	if err != nil {
		return nil, err
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}

	// One deterministic stream for all runs: alternating relations,
	// monotone timestamps, uniform keys.
	r := rng.New(cfg.Seed)
	type rec struct {
		rel string
		ts  tuple.Time
		key int64
	}
	stream := make([]rec, cfg.Tuples)
	ts := tuple.Time(0)
	for i := range stream {
		ts += tuple.Time(1 + r.Intn(3))
		rel := "R"
		if i%2 == 1 {
			rel = "S"
		}
		stream[i] = rec{rel: rel, ts: ts, key: r.Int64n(cfg.Keys)}
	}

	run := func(name string, credits int, policy runtime.OverloadPolicy) (OverloadResult, error) {
		eng := runtime.New(runtime.Config{
			Catalog:          cat,
			DefaultWindow:    cfg.Window,
			MemoryLimitBytes: cfg.MemoryLimitBytes,
			OverheadLoops:    cfg.OverheadLoops,
			Substrate:        runtime.SubstrateFlow,
			Flow: runtime.FlowConfig{
				MailboxCredits: credits,
				Workers:        cfg.Workers,
				Policy:         policy,
			},
		})
		if err := eng.Install(topo, 0); err != nil {
			return OverloadResult{}, err
		}
		defer eng.Stop()
		eng.OnResult("q1", func(*tuple.Tuple) {})

		out := OverloadResult{Substrate: name, Survived: true, FailedAt: -1}
		start := time.Now()
		window := tuple.Time(cfg.Window)
		for i, rc := range stream {
			if err := eng.Ingest(rc.rel, rc.ts, tuple.IntValue(rc.key)); err != nil {
				out.Survived = false
				out.FailedAt = i
				break
			}
			if i%128 == 0 {
				p := eng.Pressure()
				if p.QueuedMessages > out.PeakQueued {
					out.PeakQueued = p.QueuedMessages
				}
				if p.QueuedBytes > out.PeakQueuedB {
					out.PeakQueuedB = p.QueuedBytes
				}
			}
			if i%256 == 255 {
				eng.PruneBefore(eng.Watermark() - window)
			}
		}
		if out.Survived {
			eng.Drain()
		}
		out.Wall = time.Since(start)
		m := eng.Metrics().Snapshot()
		out.Ingested = m.Ingested
		out.Shed = m.ShedTuples
		out.Results = m.Results
		return out, nil
	}

	var results []OverloadResult
	for _, c := range []struct {
		name    string
		credits int
		policy  runtime.OverloadPolicy
	}{
		{"unbounded", 1 << 30, runtime.BlockOnOverload},
		{"flow-block", cfg.MailboxCredits, runtime.BlockOnOverload},
		{"flow-shed", cfg.MailboxCredits, runtime.ShedOnOverload},
	} {
		res, err := run(c.name, c.credits, c.policy)
		if err != nil {
			return nil, fmt.Errorf("bench: overload %s: %w", c.name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// FormatOverload renders the survival comparison.
func FormatOverload(results []OverloadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %-10s %10s %10s %10s %12s %14s %10s\n",
		"substrate", "outcome", "ingested", "shed", "results", "peak queued", "peak queued B", "wall")
	for _, r := range results {
		outcome := "survived"
		if !r.Survived {
			outcome = fmt.Sprintf("DIED@%d", r.FailedAt)
		}
		fmt.Fprintf(&b, "%-11s %-10s %10d %10d %10d %12d %14d %10v\n",
			r.Substrate, outcome, r.Ingested, r.Shed, r.Results,
			r.PeakQueued, r.PeakQueuedB, r.Wall.Round(time.Millisecond))
	}
	return b.String()
}
