// Tiered state: the long-state pressure survived without losing anything.
//
// examples/long-state ends in a trade — shed old epochs and lose the
// results they would have joined, or die at the budget. This
// walkthrough drives the same unbounded-window stream through a state
// budget roughly a tenth of what the window needs and shows the third
// answer (DESIGN.md §10):
//
//	container — the budget as MemoryLimitBytes: the seed death;
//	columnar  — same budget, same death, just later (smaller footprint);
//	tiered    — the columnar store again, but the budget is given as
//	            StateHotBytes and caps RESIDENT state instead: cold
//	            epochs demote to a spill file behind Bloom-filtered
//	            stubs, probes read through to disk (one read per
//	            cold epoch, decoded straight onto columns), and
//	            the full window stays queryable — zero evictions,
//	            bounded memory.
//
// A reference run with no budget at all supplies the ground truth: the
// tiered run must reproduce its result count and checksum exactly,
// because demotion moves bytes, not meaning (the CI sweep holds the
// stronger property — byte-identical results and traces across all
// three state configurations). The tiered arm must also survive, demote
// and answer probes from cold epochs, or the walkthrough exits non-zero;
// the other two arms die by design.
//
//	go run ./examples/tiered-state
package main

import (
	"errors"
	"fmt"
	"log"
	"sync/atomic"

	"clash"
	"clash/internal/rng"
)

const (
	tuples = 20000
	budget = 256 << 10 // bytes; the full window needs ~10x this
	epoch  = 256       // logical epoch length: the demotion granule
)

func main() {
	fmt.Printf("Driving %d tuples with an UNBOUNDED window; the window needs ~10x the %d KiB budget.\n\n",
		tuples, budget>>10)

	// Ground truth: no budget, everything resident.
	refResults, refSum, _, _ := run("reference (no budget)", clash.Config{})

	for _, arm := range []struct {
		name   string
		cfg    clash.Config
		tiered bool
	}{
		{"container @ budget   ", clash.Config{MemoryLimitBytes: budget}, false},
		{"columnar  @ budget   ", clash.Config{StateBackend: clash.BackendColumnar, MemoryLimitBytes: budget}, false},
		{"tiered    @ hot budget", clash.Config{StateBackend: clash.BackendColumnar, StateHotBytes: budget}, true},
	} {
		results, sum, died, m := run(arm.name, arm.cfg)
		if arm.tiered && (died || results == 0 || m.DemotedEpochs == 0 || m.ColdProbeHits == 0) {
			log.Fatalf("%s did not hold the window on its tier: died=%v, %d results, %d epochs demoted, %d probes answered cold",
				arm.name, died, results, m.DemotedEpochs, m.ColdProbeHits)
		}
		if died || results == 0 {
			continue
		}
		if results != refResults || sum != refSum {
			log.Fatalf("%s diverged from the reference: %d results (sum %d), want %d (sum %d)",
				arm.name, results, sum, refResults, refSum)
		}
		fmt.Printf("          answers match the unbudgeted reference exactly (%d results, checksum %d)\n\n",
			results, sum)
	}
}

// run ingests the stream and reports (results, checksum, died, the
// engine's metrics). The checksum folds every result's join key so a
// lost or duplicated result cannot hide behind a matching count.
func run(name string, cfg clash.Config) (int64, int64, bool, clash.MetricsSnapshot) {
	cfg.Workload = "q1: R(a) S(a)"
	cfg.EpochLength = epoch
	cfg.Substrate = clash.SubstrateFlow
	cfg.Flow = clash.FlowConfig{MailboxCredits: 64}
	eng, err := clash.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()
	// The flow substrate delivers results from several task goroutines.
	var results, sum atomic.Int64
	eng.OnResult("q1", func(tp *clash.Tuple) {
		results.Add(1)
		sum.Add(tp.At(0).Int())
	})

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
	fmt.Printf("          results=%d resident=%dKiB spilled=%dKiB demoted=%d promoted=%d coldProbes=%d/%d evicted=%d\n",
		m.Results, m.StoreBytes>>10, m.SpilledBytes>>10, m.DemotedEpochs, m.PromotedEpochs,
		m.ColdProbeHits, m.ColdProbeHits+m.ColdProbeMisses, m.EvictedTuples)
	if died >= 0 {
		fmt.Println()
	}
	return results.Load(), sum.Load(), died >= 0, m
}
