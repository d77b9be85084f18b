package runtime

import (
	"bytes"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/tuple"
)

// TestDirtyMarksBoundedWithoutCheckpointer streams 64 epochs through an
// engine that no checkpointer ever cuts, pruning a two-epoch window at
// every boundary as the adaptive controller does: a task keeps a dirty
// mark for each resident epoch it changed, and none for the epochs that
// left — those only set the lost flag. Without that, every task would
// keep one mark per epoch it ever held.
func TestDirtyMarksBoundedWithoutCheckpointer(t *testing.T) {
	const epochLen, epochs = 100, 64
	for _, backend := range []StateBackendKind{BackendContainer, BackendColumnar} {
		h := newHarness(t, "q1: R(a) S(a)", core.Options{StoreParallelism: 2},
			flatEstimates([]string{"R", "S"}, 100),
			Config{Substrate: SubstrateSynchronous, StateBackend: backend, EpochLength: epochLen})
		ins := randomStream(h.cat, epochs*epochLen/2, 20, 3)
		next := tuple.Time(epochLen)
		for _, in := range ins {
			if in.TS >= next {
				h.eng.PruneBefore(next - 2*epochLen)
				next += epochLen
			}
			if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		h.eng.Drain()
		if got := h.eng.Epoch(ins[len(ins)-1].TS); got < epochs-1 {
			t.Fatalf("%s: the stream reached epoch %d, want %d", backend, got, epochs-1)
		}
		tasks := 0
		for tk := range h.eng.liveTasks() {
			resident := len(tk.state.epochs())
			if resident >= epochs/2 {
				t.Fatalf("%s: task %v holds %d epochs — the prune dropped nothing, test vacuous", backend, tk.key, resident)
			}
			if n := len(tk.dirtyEpochs); n > resident+1 {
				t.Errorf("%s: task %v keeps %d dirty marks over %d resident epochs", backend, tk.key, n, resident)
			}
			tasks++
		}
		if tasks == 0 {
			t.Fatalf("%s: no live task", backend)
		}
		h.eng.Stop()
	}
}

// TestCutNeedsTheDrain is the vacuity arm of the checkpoint cut: on the
// simulation substrate, whose messages wait in their mailboxes until
// the scheduler runs, a cut taken without the drain copies state that
// misses the stores' queued inserts while its sequence number already
// counts their inputs. An engine restored from the cut and fed the rest
// of the stream must then diverge from one that ingested it all, and
// must equal it when the cut drains first.
func TestCutNeedsTheDrain(t *testing.T) {
	const workload = "q1: R(a) S(a)"
	opts := core.Options{StoreParallelism: 2}
	est := flatEstimates([]string{"R", "S"}, 100)
	cfg := Config{Substrate: SubstrateSim, StateBackend: BackendColumnar, Sim: SimConfig{Seed: 5}, DefaultWindow: time.Duration(1 << 40)}
	snapshot := func(h *harness) []byte {
		var b bytes.Buffer
		if err := h.eng.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	oracle := newHarness(t, workload, opts, est, cfg)
	defer oracle.eng.Stop()
	ins := randomStream(oracle.cat, 300, 10, 9)
	oracle.ingestAll(t, ins)
	want := snapshot(oracle)

	const at = 150
	for _, quiesce := range []bool{true, false} {
		h := newHarness(t, workload, opts, est, cfg)
		h.engStepModeOff() // a StepMode ingest runs to completion
		for _, in := range ins[:at] {
			if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		var buf SegmentBuf
		segs, err := h.eng.walk(true, &buf, quiesce)
		if err != nil {
			t.Fatal(err)
		}
		rec := StateRecord{Seq: h.eng.Seq(), Watermark: int64(h.eng.Watermark()), Pins: h.eng.Pins(), Segs: segs}
		cut := AppendFrame(nil, AppendStateRecord(nil, &rec))
		h.eng.Stop()

		r := newHarness(t, workload, opts, est, cfg)
		if err := r.eng.Restore(bytes.NewReader(cut)); err != nil {
			t.Fatal(err)
		}
		r.ingestAll(t, ins[at:])
		got := snapshot(r)
		r.eng.Stop()
		if equal := bytes.Equal(got, want); equal != quiesce {
			if quiesce {
				t.Errorf("restored from a drained cut, the engine's state differs from the uninterrupted run's (%d vs %d snapshot bytes)", len(got), len(want))
			} else {
				t.Errorf("restored from a cut taken without the drain, the engine's state equals the uninterrupted run's: the arm shows nothing")
			}
		}
	}
}
