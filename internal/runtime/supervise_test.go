package runtime

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// TestSupervisorRestartPreservesResults: injected panics (before any
// state mutation, via the sim hook) are absorbed by restarts and the
// run still computes the exact answer on every state row — the
// supervisor's redelivery path is exactness-preserving, not merely
// crash-avoiding. On the columnar rows, whose ingested tuples are
// recycled, a redelivered message holds a reference of its own: the
// Observer must still see every tuple with its own timestamp.
func TestSupervisorRestartPreservesResults(t *testing.T) {
	workload := "q1: R(a) S(a,b) T(b)"
	opts := core.Options{StoreParallelism: 2}
	est := flatEstimates([]string{"R", "S", "T"}, 100)
	for _, row := range backendKinds() {
		t.Run(row.name, func(t *testing.T) {
			var seen []tuple.Time // written by the statistics goroutine
			h := newHarness(t, workload, opts, est, row.apply(Config{
				Substrate: SubstrateSim,
				StepMode:  true,
				Sim: SimConfig{
					Seed: 7,
					// Deterministic occasional panic, any task.
					Panic: func(ev SimEvent) bool { return ev.Step%9 == 0 },
				},
				StateSpillDir: t.TempDir(),
				Observer:      func(_ string, tt *tuple.Tuple) { seen = append(seen, tt.TS) },
			}))
			defer h.eng.Stop()
			ins := randomStream(h.cat, 200, 5, 11)
			h.ingestAll(t, ins)
			h.checkAgainstOracle(t, ins)
			for i, in := range ins {
				if i >= len(seen) || seen[i] != in.TS {
					t.Fatalf("observation %d of %d is not ingested tuple %d (ts %d)", i, len(seen), i, in.TS)
				}
			}

			m := h.eng.Metrics().Snapshot()
			if m.RecoveredPanics == 0 {
				t.Fatal("no panics recovered — injection vacuous")
			}
			if m.TaskRestarts != m.RecoveredPanics {
				t.Errorf("restarts %d != recovered panics %d (no task should have exhausted its budget)",
					m.TaskRestarts, m.RecoveredPanics)
			}
			restarts := int64(0)
			for _, g := range h.eng.TaskGauges() {
				if !g.Healthy {
					t.Errorf("task %s/%d marked unhealthy", g.Store, g.Part)
				}
				restarts += g.Restarts
			}
			if restarts != m.TaskRestarts {
				t.Errorf("per-task restart gauges sum to %d, metrics say %d", restarts, m.TaskRestarts)
			}
		})
	}
}

// TestSupervisorBudgetExhaustion: a task that panics on every delivery
// (a poison message) exhausts its restart budget and fails the engine
// with a wrapped ErrTaskFailed naming the task — instead of restarting
// forever or killing the process.
func TestSupervisorBudgetExhaustion(t *testing.T) {
	workload := "q1: R(a) S(a)"
	opts := core.Options{StoreParallelism: 1, DisablePartitioning: true}
	est := flatEstimates([]string{"R", "S"}, 100)
	// Poison exactly one task: the first one the scheduler picks (the
	// seeded schedule makes the choice deterministic).
	var victim topology.StoreID
	poisoned := func(ev SimEvent) bool {
		if victim == "" {
			victim = ev.Store
		}
		return ev.Store == victim
	}
	h := newHarness(t, workload, opts, est, Config{
		Substrate: SubstrateSim,
		Sim:       SimConfig{Seed: 3, Panic: poisoned},
	})
	defer h.eng.Stop()

	var err error
	for _, in := range randomStream(h.cat, 20, 3, 5) {
		if err = h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			break
		}
	}
	h.eng.Drain()
	if err == nil {
		err = h.eng.Failure()
	}
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("engine error %v does not wrap ErrTaskFailed", err)
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Errorf("failure %q does not carry the panic value", err)
	}
	m := h.eng.Metrics().Snapshot()
	// A budget of restartBudget means at least that many restarts before
	// the terminal panic; queued deliveries to the already-failed task
	// may add more panics, but never more restarts of a failed task's
	// streak below the budget.
	if m.RecoveredPanics < restartBudget+1 {
		t.Errorf("recovered panics = %d, want >= %d", m.RecoveredPanics, restartBudget+1)
	}
	if m.TaskRestarts < restartBudget {
		t.Errorf("task restarts = %d, want >= %d", m.TaskRestarts, restartBudget)
	}
	if m.RecoveredPanics <= m.TaskRestarts {
		t.Errorf("recovered panics %d <= restarts %d — no terminal panic recorded", m.RecoveredPanics, m.TaskRestarts)
	}
	unhealthy := 0
	for _, g := range h.eng.TaskGauges() {
		if !g.Healthy {
			unhealthy++
		}
	}
	if unhealthy != 1 {
		t.Errorf("%d unhealthy tasks, want exactly 1", unhealthy)
	}
}

// TestSupervisorFlowRedeliversOnlyPanickedMessage: a sink panic on a
// flow worker whose mailbox has backed up restarts the task once and
// redelivers only the message that panicked. Keys are unique per
// relation, so each probe yields at most one result: a re-sent message
// that had already forwarded its result would show as a duplicate, a
// lost one as a missing result. The collected results, not the metric
// counts, are compared — a result batch is counted before its sink runs.
func TestSupervisorFlowRedeliversOnlyPanickedMessage(t *testing.T) {
	const n = 1000
	const panicAt = 500
	run := func(cfg Config, loops int, panics bool) (Snapshot, map[string]int) {
		eng, _ := overloadFixture(t, cfg, 0)
		defer eng.Stop()
		sink := NewCollectSink()
		var calls atomic.Int64
		eng.OnResult("q1", func(tp *tuple.Tuple) {
			if calls.Add(1) == panicAt && panics {
				panic("sink panic")
			}
			burn(loops)
			sink.Add(tp)
		})
		// All of R, then all of S: the S probes queue up behind one
		// another in the R store's mailboxes.
		for i := 0; i < 2*n; i++ {
			rel := "R"
			if i >= n {
				rel = "S"
			}
			if err := eng.Ingest(rel, tuple.Time(i+1), tuple.IntValue(int64(i%n))); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%v: queued messages at the drain: %d", cfg.Substrate, eng.Pressure().QueuedMessages)
		eng.Drain()
		if err := eng.Failure(); err != nil {
			t.Fatalf("engine failed: %v", err)
		}
		return eng.Metrics().Snapshot(), sink.Results()
	}
	_, want := run(Config{Substrate: SubstrateSynchronous}, 0, false)
	m, got := run(Config{Substrate: SubstrateFlow, Flow: FlowConfig{Workers: 1}}, 50000, true)
	if m.RecoveredPanics != 1 || m.TaskRestarts != 1 {
		t.Errorf("recovered panics %d, task restarts %d; want 1 and 1", m.RecoveredPanics, m.TaskRestarts)
	}
	if len(want) != n {
		t.Fatalf("synchronous engine collected %d distinct results, want %d", len(want), n)
	}
	for k, c := range got {
		if c != want[k] {
			t.Errorf("result %q collected %d times on the flow substrate, %d synchronously", k, c, want[k])
		}
	}
	for k := range want {
		if got[k] == 0 {
			t.Errorf("result %q missing on the flow substrate", k)
		}
	}
}

// TestStopIdempotentAndConcurrent: Stop, Close, and Drain may be called
// repeatedly and concurrently, from any goroutine, possibly racing with
// producers — every call returns (no deadlock on the second Stop, no
// panic on closed mailboxes), and post-stop Ingest fails cleanly. This
// is the regression test for the seed's double-Stop hang. The tiered
// arm additionally covers spill-tier teardown: racing Stop/Close calls
// must release the spill files exactly once (fsync, truncate, close),
// with every later Close still returning nil.
func TestStopIdempotentAndConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		credits int // flow grant; 1<<30 never gates the racing producer
		backend StateBackendKind
		hot     int64
	}{
		{name: "unbounded", credits: 1 << 30},
		{name: "flow", credits: 64},
		{name: "tiered", credits: 1 << 30, backend: BackendColumnar, hot: 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workload := "q1: R(a) S(a,b) T(b)"
			opts := core.Options{StoreParallelism: 2}
			est := flatEstimates([]string{"R", "S", "T"}, 100)
			cfg := Config{Substrate: SubstrateFlow, Flow: FlowConfig{MailboxCredits: tc.credits},
				StateBackend: tc.backend, StateHotBytes: tc.hot}
			if tc.hot > 0 {
				cfg.EpochLength = 48
			}
			h := newHarness(t, workload, opts, est, cfg)
			ins := randomStream(h.cat, 300, 5, 17)

			var wg sync.WaitGroup
			wg.Add(4)
			go func() { // producer racing the shutdown
				defer wg.Done()
				for _, in := range ins {
					if h.eng.Ingest(in.Rel, in.TS, in.Vals...) != nil {
						return
					}
				}
			}()
			for i := 0; i < 2; i++ {
				go func() {
					defer wg.Done()
					time.Sleep(time.Millisecond)
					h.eng.Stop()
				}()
			}
			go func() {
				defer wg.Done()
				time.Sleep(time.Millisecond)
				if err := h.eng.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Stop/Close/producer did not settle — shutdown deadlock")
			}

			// Every further call is a no-op, not a hang or panic.
			h.eng.Stop()
			h.eng.Drain()
			if err := h.eng.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			if err := h.eng.Ingest("R", 1); err == nil {
				t.Error("Ingest after Stop succeeded")
			}
		})
	}
}
