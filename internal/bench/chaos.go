package bench

// The chaos sweep backs the fault-tolerance claims with counts
// (DESIGN.md §11): seeded crash-restart-replay runs across every state
// configuration with task panics and torn WAL tails active, each
// byte-compared against an uninterrupted oracle. What durability costs
// per tuple is the benchmark's to say (cluster-paced,
// recovery.wal_append_ns_per_tuple).

import (
	"fmt"
	"time"

	"clash/internal/sim"
)

// ChaosConfig parameterizes the chaos run.
type ChaosConfig struct {
	Seeds int // crash seeds per state configuration (default 16)
	// Quick shrinks the sweep for smoke runs.
	Quick bool
}

func (c *ChaosConfig) fill() {
	if c.Seeds == 0 {
		c.Seeds = 16
	}
	if c.Quick {
		c.Seeds = 4
	}
}

// ChaosResult summarizes the sweep.
type ChaosResult struct {
	Runs       int           // crash-recovery runs verified exactly-once
	Seeds      int           // seeds per state configuration
	SweepTime  time.Duration // wall time of the whole sweep
	CrashTuple int           // stream length of each crash run
}

// Chaos runs the crash sweep: per-seed stream, crash point, torn tail
// and panic schedule. Any seed whose recovered output deviates from its
// oracle by one byte fails the whole run.
func Chaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg.fill()
	res := ChaosResult{Seeds: cfg.Seeds}
	base := sim.CrashScenario{
		Scenario: sim.Scenario{
			Workload: "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)",
			Window:   40,
			Stream:   sim.StreamConfig{Tuples: 200, Keys: 5},
			StepMode: true,
		},
		CheckpointEvery: 23,
		Torn:            &sim.TornWrite{DropMax: 48},
	}
	base.Faults = []sim.Fault{sim.TaskPanic{Part: -1, Every: 13, Until: 300}}
	res.CrashTuple = base.Stream.Tuples
	sweepStart := time.Now()
	runs, err := sim.CrashSweep(base, cfg.Seeds)
	if err != nil {
		return res, fmt.Errorf("bench: chaos sweep: %w", err)
	}
	res.Runs = runs
	res.SweepTime = time.Since(sweepStart)
	return res, nil
}

// FormatChaos renders the chaos summary.
func FormatChaos(r ChaosResult) string {
	return fmt.Sprintf("%-32s %d (%d seeds per state configuration, %d tuples each, %.2fs)\n",
		"crash runs exactly-once", r.Runs, r.Seeds, r.CrashTuple, r.SweepTime.Seconds())
}
