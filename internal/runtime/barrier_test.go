package runtime

import (
	"errors"
	"slices"
	"testing"
	"time"

	"clash/internal/query"
	"clash/internal/tuple"
)

// TestInstallBarrier pins the barrier's contract on hand-made solves:
// results install in trigger order at the smallest pending target (a
// result for epoch 3 queued behind one for epoch 5 installs both, in
// that order, before the first tuple of epoch 3 is routed); Ingest waits
// for a solve still running and counts one that finished ahead of its
// barrier; a failed solve fails the engine at its barrier, not before.
func TestInstallBarrier(t *testing.T) {
	_, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Catalog: cat, EpochLength: 10, Substrate: SubstrateSynchronous})
	defer eng.Stop()
	ingest := func(ts tuple.Time) error { return eng.Ingest("R", ts, tuple.IntValue(1)) }

	var order []string
	record := func(name string) func() error {
		return func() error { order = append(order, name); return nil }
	}
	release := make(chan struct{})
	eng.schedule(5, func() func() error { <-release; return record("tick@5") })
	eng.schedule(3, func() func() error { return record("churn@3") })

	if err := ingest(29); err != nil { // epoch 2: before every target
		t.Fatal(err)
	}
	if len(order) != 0 {
		t.Fatalf("installed %v before the barrier", order)
	}
	const hold = 20 * time.Millisecond
	go func() {
		time.Sleep(hold)
		close(release)
	}()
	if err := ingest(30); err != nil { // epoch 3: the smallest target
		t.Fatal(err)
	}
	if want := []string{"tick@5", "churn@3"}; !slices.Equal(order, want) {
		t.Fatalf("installed %v at epoch 3, want %v (trigger order, up to the last target ≤ 3)", order, want)
	}
	if w := eng.Metrics().Snapshot().BarrierWait; w <= 0 {
		t.Errorf("BarrierWait = %v after Ingest waited on a running solve", w)
	}
	if eng.barrier.min.Load() != noPending {
		t.Fatalf("barrier still at %d with nothing pending", eng.barrier.min.Load())
	}

	// A solve that finished before its barrier costs Ingest no wait.
	eng.schedule(4, func() func() error { return record("churn@4") })
	eng.barrier.mu.Lock()
	pending := slices.Clone(eng.barrier.pending)
	eng.barrier.mu.Unlock()
	if len(pending) != 1 {
		t.Fatalf("%d solves pending, want 1", len(pending))
	}
	<-pending[0].done
	ahead := eng.Metrics().Snapshot().SolvesAhead
	if err := ingest(40); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Snapshot().SolvesAhead; got != ahead+1 {
		t.Errorf("SolvesAhead %d → %d for a solve finished ahead of its barrier", ahead, got)
	}
	if order[len(order)-1] != "churn@4" {
		t.Fatalf("churn@4 not installed: %v", order)
	}

	// A failed solve surfaces at its barrier and fails the engine.
	errSolve := errors.New("solve failed")
	eng.schedule(6, func() func() error { return func() error { return errSolve } })
	if err := ingest(59); err != nil {
		t.Fatalf("the failure surfaced before its epoch: %v", err)
	}
	if err := ingest(60); !errors.Is(err, errSolve) {
		t.Fatalf("Ingest at the failed solve's epoch returned %v, want %v", err, errSolve)
	}
	if err := eng.Failure(); !errors.Is(err, errSolve) {
		t.Fatalf("Failure() = %v, want %v", err, errSolve)
	}
}

// TestStopWaitsForPendingSolve pins that Stop returns only once every
// scheduled solve has finished, and installs none of them on the
// stopping engine.
func TestStopWaitsForPendingSolve(t *testing.T) {
	_, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Catalog: cat, EpochLength: 10})
	release := make(chan struct{})
	installed := false
	eng.schedule(1, func() func() error {
		<-release
		return func() error { installed = true; return nil }
	})
	stopped := make(chan struct{})
	go func() {
		eng.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned with a solve still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	if installed {
		t.Error("Stop installed a result on the stopping engine")
	}
}
