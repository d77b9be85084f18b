package runtime

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/topology"
)

// TestSupervisorRestartPreservesResults: injected panics (before any
// state mutation, via the sim hook) are absorbed by restarts and the
// run still computes the exact answer — the supervisor's redelivery
// path is exactness-preserving, not merely crash-avoiding.
func TestSupervisorRestartPreservesResults(t *testing.T) {
	workload := "q1: R(a) S(a,b) T(b)"
	opts := core.Options{StoreParallelism: 2}
	est := flatEstimates([]string{"R", "S", "T"}, 100)
	h := newHarness(t, workload, opts, est, Config{
		Substrate: SubstrateSim,
		StepMode:  true,
		Sim: SimConfig{
			Seed: 7,
			// Deterministic occasional panic, any task.
			Panic: func(ev SimEvent) bool { return ev.Step%9 == 0 },
		},
	})
	defer h.eng.Stop()
	ins := randomStream(h.cat, 200, 5, 11)
	h.ingestAll(t, ins)
	h.checkAgainstOracle(t, ins)

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
		Substrate:   SubstrateSim,
		Supervision: SupervisionConfig{MaxRestarts: 2},
		Sim:         SimConfig{Seed: 3, Panic: poisoned},
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
	// Budget 2 means at least 2 restarts before the terminal (3rd) panic;
	// queued deliveries to the already-failed task may add more panics,
	// but never more restarts of a failed task's streak below the budget.
	if m.RecoveredPanics < 3 {
		t.Errorf("recovered panics = %d, want >= 3", m.RecoveredPanics)
	}
	if m.TaskRestarts < 2 {
		t.Errorf("task restarts = %d, want >= 2", m.TaskRestarts)
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

// TestSupervisorDisabledFailsOnFirstPanic: MaxRestarts < 0 turns the
// supervisor into fail-fast — the first panic is a clean engine
// failure, never a restart.
func TestSupervisorDisabledFailsOnFirstPanic(t *testing.T) {
	workload := "q1: R(a) S(a)"
	opts := core.Options{StoreParallelism: 1, DisablePartitioning: true}
	est := flatEstimates([]string{"R", "S"}, 100)
	var victim topology.StoreID
	poisoned := func(ev SimEvent) bool {
		if victim == "" {
			victim = ev.Store
		}
		return ev.Store == victim
	}
	h := newHarness(t, workload, opts, est, Config{
		Substrate:   SubstrateSim,
		Supervision: SupervisionConfig{MaxRestarts: -1},
		Sim:         SimConfig{Seed: 3, Panic: poisoned},
	})
	defer h.eng.Stop()
	for _, in := range randomStream(h.cat, 10, 3, 5) {
		if h.eng.Ingest(in.Rel, in.TS, in.Vals...) != nil {
			break
		}
	}
	h.eng.Drain()
	if err := h.eng.Failure(); !errors.Is(err, ErrTaskFailed) {
		t.Fatalf("engine error %v does not wrap ErrTaskFailed", err)
	}
	m := h.eng.Metrics().Snapshot()
	if m.TaskRestarts != 0 {
		t.Errorf("task restarts = %d with restarts disabled", m.TaskRestarts)
	}
	if m.RecoveredPanics < 1 {
		t.Errorf("recovered panics = %d, want >= 1", m.RecoveredPanics)
	}
}

// TestStopIdempotentAndConcurrent: Stop, Close, and Drain may be called
// repeatedly and concurrently, from any goroutine, possibly racing with
// producers — every call returns (no deadlock on the second Stop, no
// panic on closed mailboxes), and post-stop Ingest fails cleanly. This
// is the regression test for the seed's double-Stop hang. The tiered
// arm additionally covers spill-tier teardown: racing Stop/Close calls
// must release the mmap'd spill segments exactly once (munmap, fsync,
// truncate), with every later Close still returning nil.
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
