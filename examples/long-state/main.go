// Long-state survival: joins whose windows hold more state than memory.
//
// The seed design dies here: with an unbounded (or very wide) window,
// materialized state only grows, and the only memory policy is
// terminating the engine with ErrMemoryLimit once the budget is hit.
// This walkthrough drives the same unbounded-window stream through
// three configurations on the flow-controlled substrate:
//
//	seed       — the seed behaviour: container store, the budget as
//	             MemoryLimitBytes, which fails the engine (the Fig. 8a
//	             death, now on state instead of queueing);
//	evict      — same container store, the budget as StateLimitBytes,
//	             which sheds whole epochs (oldest first, counted in
//	             Metrics) instead of dying;
//	columnar   — the epoch-ring columnar backend under the same state
//	             budget: identical survival with a smaller resident
//	             footprint (flat segments, open-addressed indices —
//	             DESIGN.md §10).
//
// Eviction is the long-state trade (arXiv:2411.15835): results whose
// partner epoch was shed are lost, but the engine stays live, keeps
// answering over the retained horizon, and bounds its memory.
//
//	go run ./examples/long-state
package main

import (
	"errors"
	"fmt"
	"log"

	"clash"
	"clash/internal/rng"
)

const (
	tuples = 20000
	budget = 256 << 10 // state budget, bytes (payload + structure + indices)
	epoch  = 256       // logical epoch length: the eviction granularity
)

func main() {
	fmt.Printf("Driving %d tuples with an UNBOUNDED window under a %d KiB state budget.\n\n",
		tuples, budget>>10)

	run("seed    ", clash.Config{MemoryLimitBytes: budget})
	run("evict   ", clash.Config{StateLimitBytes: budget})
	run("columnar", clash.Config{
		StateBackend:    clash.BackendColumnar,
		StateLimitBytes: budget,
	})
}

func run(name string, cfg clash.Config) {
	cfg.Workload = "q1: R(a) S(a)"
	cfg.EpochLength = epoch
	cfg.Substrate = clash.SubstrateFlow
	cfg.Flow = clash.FlowConfig{MailboxCredits: 64}
	eng, err := clash.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()
	eng.OnResult("q1", func(*clash.Tuple) {})

	r := rng.New(3)
	died := -1
	var ts int64
	for i := 0; i < tuples; i++ {
		ts++
		rel := "R"
		if i%2 == 1 {
			rel = "S"
		}
		if err := eng.Ingest(rel, clash.Time(ts), clash.Int(r.Int64n(48))); err != nil {
			if !errors.Is(err, clash.ErrMemoryLimit) {
				log.Fatal(err)
			}
			died = i
			break
		}
	}
	if died < 0 {
		eng.Drain()
	}
	m := eng.Metrics()
	outcome := "survived"
	if died >= 0 {
		outcome = fmt.Sprintf("DIED at tuple %d (memory limit)", died)
	}
	fmt.Printf("%s  %s\n", name, outcome)
	fmt.Printf("          results=%d stored=%d state=%dKiB (index %dKiB) evicted=%d epochs / %d tuples\n\n",
		m.Results, m.Stored, m.StoreBytes>>10, m.IndexBytes>>10, m.EvictedEpochs, m.EvictedTuples)
}
