package runtime

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"clash/internal/topology"
	"clash/internal/tuple"
)

// Checkpointing serializes the engine's materialized store state — every
// task's per-epoch tuple history, with the pin table that routes it — so
// a restarted process can resume answering with its windowed history
// intact instead of waiting a full window for completeness (the
// bootstrap problem of Sec. VI-B, Fig. 6). A snapshot is one framed
// state record (codec.go): the same frame, schema table and entry codec
// as the recovery layer's checkpoint log and the spill tier.
//
// The format is backend-agnostic: state is walked through the
// stateBackend interface in deterministic order (Segments), so a
// snapshot taken on one backend restores onto any other — and two
// engines that ingested the same stream produce byte-identical snapshots
// regardless of backend.
//
// Checkpoint and Restore require a quiesced engine: call Drain first and
// do not Ingest concurrently. Restore must run after Install on an
// engine whose topology contains the checkpointed stores with the same
// pinned parallelism.
//
// Drain semantics under bounded queues (SubstrateFlow): quiescence is
// well-defined on every substrate because admission happens before any
// message exists — a producer blocked at the credit gate holds no
// credit and no in-flight message, so draining the pool really does
// settle all state. Checkpoint verifies this invariant after its
// Drain and refuses to snapshot an engine that still has (or regained)
// in-flight work, rather than serializing mid-probe state. Restore
// writes directly into the task containers and consumes no credits.

// ErrCorruptSnapshot is reported (wrapped, with detail) by Restore for
// any truncated or corrupt snapshot, and by the spill tier for a damaged
// spill frame. Decoding untrusted bytes must error, never panic: callers
// branch on errors.Is(err, ErrCorruptSnapshot) to distinguish bad input
// from topology mismatch.
var ErrCorruptSnapshot = errors.New("runtime: corrupt or truncated snapshot")

// ErrUnknownTask is reported (wrapped) by Restore and LoadTaskEpoch when
// a snapshot or checkpoint segment addresses a task the installed
// topology does not have. The recovery layer branches on it to tell a
// stale chain (a store retired after the snapshot was taken) apart from
// corrupt input.
var ErrUnknownTask = errors.New("runtime: checkpoint references unknown task")

// corruptSnapshot wraps ErrCorruptSnapshot with positional detail.
func corruptSnapshot(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// Checkpoint writes a snapshot of all materialized state to w.
func (e *Engine) Checkpoint(w io.Writer) error {
	segs, err := e.Segments(false)
	if err != nil {
		return err
	}
	rec := StateRecord{Seq: e.seq.Load(), Watermark: e.watermk.Load(), Pins: e.Pins(), Segs: segs}
	_, err = w.Write(AppendFrame(nil, AppendStateRecord(nil, &rec)))
	return err
}

// Restore loads a snapshot produced by Checkpoint into this engine.
// The topology must already be installed; tasks referenced by the
// snapshot must exist (same stores and parallelism). The snapshot is
// decoded and checked against the topology before anything is loaded:
// truncated or corrupt input returns a wrapped ErrCorruptSnapshot — never
// a panic, never a partial load — because snapshots cross a process
// boundary and arrive as untrusted bytes. The snapshot's pins are
// re-imposed (RestorePins) before its segments load (LoadTaskEpoch).
func (e *Engine) Restore(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("runtime: reading checkpoint: %w", err)
	}
	payload, err := wholeFrame(b)
	if err != nil {
		return err
	}
	rec, err := DecodeStateRecord(payload)
	if err != nil {
		return err
	}
	if rec.Anchor != 0 || len(rec.Drops) != 0 {
		return corruptSnapshot("an anchored checkpoint-log record, not a snapshot")
	}
	e.mu.RLock()
	for _, sg := range rec.Segs {
		if e.taskAt(sg.Key.Store, sg.Key.Part) == nil {
			e.mu.RUnlock()
			return fmt.Errorf("%w %s/%d (install the topology first)", ErrUnknownTask, sg.Key.Store, sg.Key.Part)
		}
	}
	e.mu.RUnlock()
	if err := e.RestorePins(rec.Pins); err != nil {
		return err
	}
	for _, sg := range rec.Segs {
		if err := e.LoadTaskEpoch(sg.Key.Store, sg.Key.Part, sg.Key.Epoch, sg.Tuples, sg.Seqs); err != nil {
			return err
		}
	}
	e.RestoreProgress(rec.Seq, rec.Watermark)
	return nil
}

// RestoreProgress fast-forwards the engine's source sequence counter
// and event-time watermark to at least the given values (never
// backwards). Restore calls it with the snapshot header; the recovery
// layer calls it directly when a checkpoint chain restores state
// through LoadTaskEpoch.
func (e *Engine) RestoreProgress(seq uint64, watermark int64) {
	for {
		old := e.seq.Load()
		if old >= seq || e.seq.CompareAndSwap(old, seq) {
			break
		}
	}
	for {
		old := e.watermk.Load()
		if old >= watermark || e.watermk.CompareAndSwap(old, watermark) {
			break
		}
	}
}

// Seq returns the engine's current source sequence counter: the number
// of ingests admitted so far (and the dedup anchor the recovery layer
// records with each incremental checkpoint).
func (e *Engine) Seq() uint64 { return e.seq.Load() }

// Segments walks the materialized state of a quiesced engine into
// segments, in the one deterministic order every serializer relies on:
// tasks by store then partition, epochs ascending, storage order within
// an epoch — the same on every backend. A columnar task's segments read
// its columns in place (no tuple per row; see Segment): encode them
// before the engine next changes state. With dirtyOnly the walk covers
// just the epochs marked dirty since the last ClearDirty, including
// those now empty (a prune or eviction emptied them; the incremental
// checkpointer tombstones those), so a checkpoint's cost follows the
// hot state, not the window. The full walk (a snapshot) skips empty
// epochs. It drains first, so re-optimizations still being solved are
// installed before the walk.
func (e *Engine) Segments(dirtyOnly bool) ([]Segment, error) {
	e.Drain()
	if n := e.inflight.Load(); n != 0 {
		return nil, fmt.Errorf("runtime: state walk requires a quiesced engine (%d messages in flight — concurrent Ingest?)", n)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	var segs []Segment
	for t := range e.liveTasks() {
		eps := t.state.epochs()
		if dirtyOnly {
			eps = slices.Sorted(maps.Keys(t.dirtyEpochs))
		}
		for _, ep := range eps {
			if !dirtyOnly && t.state.epochLen(ep) == 0 {
				continue
			}
			sg := t.state.segment(ep)
			sg.Key = SegKey{Store: t.key.store, Part: t.key.part, Epoch: ep}
			segs = append(segs, sg)
		}
	}
	return segs, nil
}

// ClearDirty resets every task's dirty-epoch set. The checkpointer
// calls it once its checkpoint record is durable; a failed append
// leaves the sets intact so the next attempt re-walks the same delta.
func (e *Engine) ClearDirty() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for t := range e.liveTasks() {
		clear(t.dirtyEpochs)
		t.lastDirtyOK = false
	}
}

// LoadTaskEpoch inserts checkpointed tuples directly into one task's
// epoch container, with full gauge and byte accounting — the recovery
// layer's restore primitive (a composed incremental-checkpoint chain is
// a set of per-task-epoch segments). The topology must be installed and
// the engine quiet; like Restore, it bypasses flow control entirely.
func (e *Engine) LoadTaskEpoch(store topology.StoreID, part int, epoch int64, tps []*tuple.Tuple, seqs []uint64) error {
	if len(tps) != len(seqs) {
		return fmt.Errorf("runtime: LoadTaskEpoch: %d tuples but %d sequence numbers", len(tps), len(seqs))
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	t := e.taskAt(store, part)
	if t == nil {
		return fmt.Errorf("%w %s/%d (install the topology first)", ErrUnknownTask, store, part)
	}
	t.markDirty(epoch)
	for i, tp := range tps {
		delta, idxDelta := t.state.insert(tp, seqs[i], epoch)
		t.storedCount.Add(1)
		e.metrics.stored.Add(1)
		t.accountState(delta, idxDelta)
	}
	return nil
}
