package runtime

// Regression tests for the parked (non-polling) drain and admission
// waits: the former 20µs sleep-poll loops in flow.go are gone, so a
// drain or a credit-blocked source must wake via condition signals —
// promptly, and without burning a CPU while waiting.

import (
	"bytes"
	"testing"
	"time"

	"clash/internal/core"
)

// TestBlockedSourceWakesOnCreditRelease: with a single credit and a
// single slow worker, every Ingest after the first blocks at the
// admission gate and is woken by that credit's repayment. The stream
// only finishes if every release wakes the waiting producer — a lost
// wakeup (or a poll that outlives the test timeout) fails it.
func TestBlockedSourceWakesOnCreditRelease(t *testing.T) {
	eng, cat := overloadFixture(t, Config{
		Substrate: SubstrateFlow,
		Flow:      FlowConfig{MailboxCredits: 1, Workers: 1},
	}, 200)
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		ins := randomStream(cat, n, 8, 3)
		for _, in := range ins {
			if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("producer still blocked — credit release did not wake the admission gate")
	}
	eng.Drain()
	m := eng.Metrics().Snapshot()
	eng.Stop()
	if m.Ingested != n {
		t.Errorf("admitted %d of %d tuples", m.Ingested, n)
	}
	if m.ShedTuples != 0 {
		t.Errorf("%d tuples shed under BlockOnOverload", m.ShedTuples)
	}
}

// TestDrainParksUntilSettled: a drain issued with a backlog on slow
// consumers parks until the last message is handled and the last credit
// repaid, then wakes. Covers the default substrate under a grant the
// stream cannot exhaust (the whole stream is queued when the drain
// starts) and a gating grant, against the engine's quiesce condition.
func TestDrainParksUntilSettled(t *testing.T) {
	for name, cfg := range map[string]Config{
		"unbounded": {Flow: FlowConfig{MailboxCredits: 1 << 30}},
		"flow":      {Substrate: SubstrateFlow, Flow: FlowConfig{MailboxCredits: 64}},
	} {
		t.Run(name, func(t *testing.T) {
			eng, cat := overloadFixture(t, cfg, 2000)
			ins := randomStream(cat, 1500, 8, 7)
			for _, in := range ins {
				if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("queued messages at the drain: %d", eng.Pressure().QueuedMessages)
			drained := make(chan struct{})
			go func() {
				eng.Drain()
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(30 * time.Second):
				t.Fatal("drain never woke")
			}
			if n := eng.inflight.Load(); n != 0 {
				t.Errorf("drain returned with %d messages in flight", n)
			}
			if p := eng.Pressure(); p.QueuedMessages != 0 {
				t.Errorf("drain returned with %d queued messages", p.QueuedMessages)
			}
			// Nothing left to do: an immediate re-drain must return at
			// once (the settle condition is already true).
			start := time.Now()
			eng.Drain()
			if el := time.Since(start); el > time.Second {
				t.Errorf("settled drain took %v", el)
			}
			eng.Stop()
		})
	}
}

// TestCheckpointQuiescenceOnSim: checkpoint/restore round-trips on the
// simulation substrate — Drain's quiescence guarantee (inflight == 0,
// credits settled) holds there too, and the checkpoint-resumed results
// merged with the pre-checkpoint ones equal the oracle of the full
// stream, exactly as on the synchronous substrate.
func TestCheckpointQuiescenceOnSim(t *testing.T) {
	workload := "q1: R(a) S(a)"
	opts := core.Options{StoreParallelism: 2}
	cfg := Config{Substrate: SubstrateSim,
		Sim: SimConfig{Seed: 5, MailboxCredits: 8}, StepMode: true}

	h1 := newHarness(t, workload, opts, flatEstimates([]string{"R", "S"}, 100), cfg)
	ins := randomStream(h1.cat, 200, 6, 11)
	half := len(ins) / 2
	h1.ingestAll(t, ins[:half])
	var snap bytes.Buffer
	if err := h1.eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	h1.eng.Stop()

	h2 := newHarness(t, workload, opts, flatEstimates([]string{"R", "S"}, 100), cfg)
	defer h2.eng.Stop()
	if err := h2.eng.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	h2.ingestAll(t, ins[half:])

	merged := map[string]int{}
	for k, v := range h1.sinks["q1"].Results() {
		merged[k] += v
	}
	for k, v := range h2.sinks["q1"].Results() {
		merged[k] += v
	}
	want := ReferenceJoin(h1.queries[0], h1.cat, 0, ins)
	if len(want) == 0 {
		t.Fatal("oracle empty — vacuous")
	}
	for k, n := range want {
		if merged[k] != n {
			t.Errorf("result %q count = %d, oracle %d", k, merged[k], n)
		}
	}
	for k := range merged {
		if want[k] == 0 {
			t.Errorf("spurious result %q", k)
		}
	}
}
