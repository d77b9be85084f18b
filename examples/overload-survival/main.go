// Overload survival: what happens when a join topology is fed faster
// than it can process — under three credit grants of the flow
// substrate.
//
// A grant the stream cannot exhaust (the paper's Fig. 8a setting) never
// gates admission: the backlog buffers in task mailboxes until the
// memory budget kills the engine. A bounded grant gives each task a
// fixed number of mailbox credits; when they run out, the admission
// gate either blocks the producer (lossless backpressure) or sheds
// tuples (lossy but live). Either way the engine survives sustained
// overload with bounded memory.
//
//	go run ./examples/overload-survival
package main

import (
	"errors"
	"fmt"
	"log"

	"clash"
	"clash/internal/rng"
)

const (
	tuples = 12000
	budget = 384 << 10 // shared memory budget, bytes
	window = 512       // logical join window
)

func main() {
	fmt.Printf("Driving %d tuples through a slow R⋈S topology under a %d KiB budget.\n\n",
		tuples, budget>>10)

	run("unbounded ", clash.Config{
		Substrate: clash.SubstrateFlow,
		Flow:      clash.FlowConfig{MailboxCredits: 1 << 30},
	})
	run("flow-block", clash.Config{
		Substrate: clash.SubstrateFlow,
		Flow:      clash.FlowConfig{MailboxCredits: 32},
	})
	run("flow-shed ", clash.Config{
		Substrate: clash.SubstrateFlow,
		Flow:      clash.FlowConfig{MailboxCredits: 32, Policy: clash.ShedOnOverload},
	})
}

func run(name string, cfg clash.Config) {
	cfg.Workload = "q1: R(a) S(a)"
	cfg.DefaultWindow = window
	// Epochs make the (static) controller prune expired window state at
	// boundaries, so the budget measures queueing, not legitimate state.
	cfg.EpochLength = window / 2
	cfg.MemoryLimitBytes = budget
	// Slow consumers: a deliberately heavy sink.
	eng, err := clash.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()
	spin := 0
	eng.OnResult("q1", func(*clash.Tuple) {
		for i := 0; i < 50000; i++ { // slow consumer
			spin += i ^ spin>>3
		}
	})

	r := rng.New(7)
	var ts int64
	var peakQueued int64
	died := -1
	for i := 0; i < tuples; i++ {
		ts += int64(1 + r.Intn(3))
		rel := "R"
		if i%2 == 1 {
			rel = "S"
		}
		if err := eng.Ingest(rel, clash.Time(ts), clash.Int(r.Int64n(24))); err != nil {
			if !errors.Is(err, clash.ErrMemoryLimit) {
				log.Fatal(err)
			}
			died = i
			break
		}
		if i%128 == 0 {
			if p := eng.Pressure(); p.QueuedMessages > peakQueued {
				peakQueued = p.QueuedMessages
			}
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
	fmt.Printf("            admitted=%d shed=%d results=%d peak-queued=%d msgs\n\n",
		m.Ingested, m.ShedTuples, m.Results, peakQueued)
}
