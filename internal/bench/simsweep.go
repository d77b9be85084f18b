package bench

import (
	"fmt"
	"maps"
	"strings"
	"time"

	"clash/internal/runtime"
	"clash/internal/sim"
	"clash/internal/tpch"
)

// StateConfig re-exports the state-matrix row type so cmd/clash-bench
// needs only this package.
type StateConfig = sim.StateConfig

// ParseBackend maps a -backend flag value to its row of the state
// matrix ("" = container).
func ParseBackend(name string) (StateConfig, error) {
	rows := sim.StateConfigs()
	if name == "" {
		return rows[0], nil
	}
	for _, row := range rows {
		if strings.EqualFold(name, row.Name) {
			return row, nil
		}
	}
	return StateConfig{}, fmt.Errorf("bench: unknown state backend %q (container|columnar|tiered)", name)
}

// SimSweepConfig parameterizes the seeded-schedule sweep: the TPC-H
// multi-query equivalence oracle, run once on the exact synchronous
// substrate and then across Seeds deterministic interleavings on the
// simulation substrate, each seed byte-compared against the oracle and
// replayed against its own trace.
type SimSweepConfig struct {
	SF    float64 // TPC-H scale factor (default 0.0002 — sweep scale)
	Seeds int     // schedule seeds to explore (default 16)
	Seed  uint64  // workload/data seed (default 42)
	// State selects the state-matrix row of the simulated runs (zero
	// value: the container backend); the oracle stays on the default
	// container backend, so a columnar or tiered sweep also proves
	// cross-backend equivalence seed by seed.
	State sim.StateConfig
}

func (c *SimSweepConfig) fill() {
	if c.SF == 0 {
		c.SF = 0.0002
	}
	if c.Seeds == 0 {
		c.Seeds = 16
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.State.Name == "" {
		c.State = sim.StateConfigs()[0]
	}
}

// SimSweepResult summarizes one sweep.
type SimSweepResult struct {
	Backend           string
	Seeds             int   // seeds swept, all equivalent to the oracle
	Records           int   // TPC-H records per run
	OracleResults     int64 // join results of the exact oracle run
	DistinctSchedules int   // distinct schedule digests across the sweep
	ReplaysChecked    int   // same-seed reruns verified trace-identical
	TraceSteps        int   // scheduling decisions of the first seed

	// Fault scenario: a source hiccup bursting into a credit-starved
	// engine (flow control), reproduced and replayed from its seed.
	FaultSeed       uint64
	FaultStalls     int
	FaultReplayedOK bool
}

// SimSweep runs the sweep. It fails (returns an error) on the first
// seed whose results deviate from the oracle by a single byte, on any
// same-seed replay divergence, and on a fault scenario that cannot be
// reproduced — the CI gate for schedule-independence.
func SimSweep(cfg SimSweepConfig) (SimSweepResult, error) {
	cfg.fill()
	var res SimSweepResult
	res.Backend = cfg.State.Name

	fx, err := tpch.NewFixture(tpch.Fig7Queries(), cfg.SF, cfg.Seed, 2)
	if err != nil {
		return res, err
	}
	queries, cat, records := fx.Queries, fx.Catalog, fx.Records
	res.Records = len(records)
	topo, err := fx.SharedTopology()
	if err != nil {
		return res, err
	}

	run := func(cfg runtime.Config, onEvent func(runtime.SimEvent)) (map[string]map[string]int, int64, error) {
		cfg.Catalog = cat
		cfg.Sim.OnEvent = onEvent
		eng := runtime.New(cfg)
		defer eng.Stop()
		if err := eng.Install(topo, 0); err != nil {
			return nil, 0, err
		}
		sinks := map[string]*runtime.CollectSink{}
		for _, q := range queries {
			s := runtime.NewCollectSink()
			sinks[q.Name] = s
			eng.OnResult(q.Name, s.Add)
		}
		for _, r := range records {
			if err := eng.Ingest(r.Relation, r.TS, r.Vals...); err != nil {
				return nil, 0, err
			}
		}
		eng.Drain()
		out := map[string]map[string]int{}
		var total int64
		for name, s := range sinks {
			out[name] = s.Results()
			total += int64(s.Count())
		}
		return out, total, nil
	}

	oracle, oracleTotal, err := run(runtime.Config{Synchronous: true}, nil)
	if err != nil {
		return res, fmt.Errorf("bench: oracle run: %w", err)
	}
	res.OracleResults = oracleTotal
	if oracleTotal == 0 {
		return res, fmt.Errorf("bench: oracle produced no results — sweep vacuous")
	}

	digests := map[uint64]bool{}
	for seed := 1; seed <= cfg.Seeds; seed++ {
		trace := &sim.Trace{}
		simCfg := runtime.Config{Substrate: runtime.SubstrateSim, StepMode: true,
			StateBackend: cfg.State.Backend, StateHotBytes: cfg.State.HotBytes,
			Sim: runtime.SimConfig{Seed: uint64(seed)}}
		if cfg.State.HotBytes > 0 {
			// A hot budget bites only with epochs to demote.
			simCfg.EpochLength = 64 * time.Second
		}
		got, _, err := run(simCfg, trace.Hook())
		if err != nil {
			return res, fmt.Errorf("bench: seed %d: %w", seed, err)
		}
		for name, want := range oracle {
			if !maps.Equal(got[name], want) {
				return res, fmt.Errorf("bench: seed %d: query %s deviates from the oracle", seed, name)
			}
		}
		digests[trace.Digest()] = true
		if seed == 1 {
			res.TraceSteps = trace.Len()
		}
		// Replay the first and last seed: identical schedule, step for step.
		if seed == 1 || seed == cfg.Seeds {
			replay := &sim.Trace{}
			if _, _, err := run(simCfg, replay.Hook()); err != nil {
				return res, fmt.Errorf("bench: seed %d replay: %w", seed, err)
			}
			if at := trace.DivergesAt(replay); at >= 0 {
				return res, fmt.Errorf("bench: seed %d: replay diverges at step %d", seed, at)
			}
			res.ReplaysChecked++
		}
		res.Seeds++
	}
	res.DistinctSchedules = len(digests)

	// Injected-fault scenario: a source hiccup releases a held burst
	// into a credit-starved flow-controlled engine. The run must stay
	// exact over the delivered order and replay from its seed.
	res.FaultSeed = 7
	fault := sim.Scenario{
		Workload: "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)",
		Window:   40 * time.Nanosecond,
		Stream:   sim.StreamConfig{Tuples: 500, Keys: 5, Seed: cfg.Seed},
		Seed:     res.FaultSeed,
		Credits:  4,
		StepMode: true,
		Faults: []sim.Fault{
			sim.SourceHiccup{At: 100, Hold: 120},
			sim.TaskStall{Part: -1, Every: 3, Until: 600},
		},
	}
	fault.UseState(cfg.State)
	fres, err := fault.Run()
	if err != nil {
		return res, fmt.Errorf("bench: fault scenario: %w", err)
	}
	// The hiccup reorders delivery, so the faulted run is held to the
	// schedule-independence property: byte-identical results vs the
	// exact synchronous substrate over the same delivered stream.
	if err := fault.VerifySubstrateIndependent(fres); err != nil {
		return res, fmt.Errorf("bench: fault scenario: %w", err)
	}
	if _, at, err := fault.Replay(fres); err != nil {
		return res, fmt.Errorf("bench: fault replay: %w", err)
	} else if at >= 0 {
		return res, fmt.Errorf("bench: fault replay diverges at step %d", at)
	}
	res.FaultStalls = fres.Trace.Stalls()
	res.FaultReplayedOK = true
	return res, nil
}

// FormatSimSweep renders the sweep summary.
func FormatSimSweep(r SimSweepResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %s\n", "state backend", r.Backend)
	fmt.Fprintf(&sb, "%-28s %d\n", "seeds swept (all exact)", r.Seeds)
	fmt.Fprintf(&sb, "%-28s %d\n", "records per run", r.Records)
	fmt.Fprintf(&sb, "%-28s %d\n", "oracle join results", r.OracleResults)
	fmt.Fprintf(&sb, "%-28s %d\n", "distinct schedules", r.DistinctSchedules)
	fmt.Fprintf(&sb, "%-28s %d\n", "schedule steps (seed 1)", r.TraceSteps)
	fmt.Fprintf(&sb, "%-28s %d\n", "replays trace-identical", r.ReplaysChecked)
	fmt.Fprintf(&sb, "%-28s seed=%d stalls=%d replayed=%v\n",
		"fault: hiccup+starvation", r.FaultSeed, r.FaultStalls, r.FaultReplayedOK)
	return sb.String()
}
