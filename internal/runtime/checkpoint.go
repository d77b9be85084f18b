package runtime

import (
	"errors"
	"fmt"
	"io"
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
	for i := range rec.Segs {
		if err := e.LoadTaskEpoch(&rec.Segs[i]); err != nil {
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
// just the epochs marked dirty since the last cut (CutSegments), so a
// checkpoint's cost follows the hot state, not the window. The full
// walk (a snapshot) skips empty epochs. It drains first, so
// re-optimizations still being solved are installed before the walk.
func (e *Engine) Segments(dirtyOnly bool) ([]Segment, error) {
	return e.walk(dirtyOnly, nil, true)
}

// CutSegments is an incremental checkpoint's cut: the dirty walk of
// Segments with every segment's rows copied into dst, so the segments
// stay valid while the engine runs on, and with the dirty marks taken —
// the next cut walks only what changes after this one. The copies live
// in dst's arrays until the next cut into dst. If the record the cut
// was for fails to append, ReturnCut gives the marks back.
func (e *Engine) CutSegments(dst *SegmentBuf) ([]Segment, error) {
	return e.walk(true, dst, true)
}

// walk is the one state walk behind Segments and CutSegments. With dst
// it copies each segment into dst and takes each task's dirty marks.
// quiesce is false only in the test that shows a cut needs the drain.
func (e *Engine) walk(dirtyOnly bool, dst *SegmentBuf, quiesce bool) ([]Segment, error) {
	if quiesce {
		e.Drain()
		if n := e.inflight.Load(); n != 0 {
			return nil, fmt.Errorf("runtime: state walk requires a quiesced engine (%d messages in flight — concurrent Ingest?)", n)
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	var segs []Segment
	var dirty []int64
	if dst != nil {
		dst.reset()
		segs, dirty = dst.segs, dst.eps
	}
	for t := range e.liveTasks() {
		eps := t.state.epochs()
		if dirtyOnly {
			dirty = dirty[:0]
			for ep := range t.dirtyEpochs {
				dirty = append(dirty, ep)
			}
			slices.Sort(dirty)
			eps = dirty
		}
		for _, ep := range eps {
			if !dirtyOnly && t.state.epochLen(ep) == 0 {
				continue
			}
			sg := t.state.segment(ep, dst)
			sg.Key = SegKey{Store: t.key.store, Part: t.key.part, Epoch: ep}
			segs = append(segs, sg)
		}
		if dst != nil {
			dst.take(t)
		}
	}
	if dst != nil {
		dst.segs, dst.eps = segs, dirty
	}
	return segs, nil
}

// ReturnCut gives every task back the dirty marks the last cut took:
// the record that was to cover them failed to append, so the next cut
// must walk that delta again. It drains first, like the cut.
func (e *Engine) ReturnCut() {
	e.Drain()
	e.mu.RLock()
	defer e.mu.RUnlock()
	for t := range e.liveTasks() {
		for ep := range t.cutEpochs {
			t.markDirty(ep)
		}
		clear(t.cutEpochs)
		t.lostEpochs = t.lostEpochs || t.cutLost
		t.cutLost = false
	}
}

// SegmentBuf holds what a checkpoint cut copies out of the engine
// (CutSegments): the dirty segments' rows, in arrays it keeps from one
// cut to the next, so a cut in steady state allocates nothing and its
// segments stay valid while the engine changes state: each epoch's
// seqs, event times, schema ordinals and columns up to its row count —
// a container task's rows are appended to the copy cell by cell. The
// zero value is ready to use.
type SegmentBuf struct {
	segs  []Segment
	cols  []*colSegment // column copies, reused in order
	nCols int
	eps   []int64 // a task's dirty epochs, sorted
	// lost lists the tasks that lost an epoch since the previous cut,
	// each with its resident epochs at this cut (a span of resident).
	lost     []lostSpan
	resident []int64
}

type lostSpan struct {
	store    topology.StoreID
	part     int
	from, to int
}

func (b *SegmentBuf) reset() {
	b.segs, b.nCols = b.segs[:0], 0
	b.lost, b.resident = b.lost[:0], b.resident[:0]
}

// take swaps the task's dirty marks into its cut set, dropping what the
// previous cut took (its record is durable, or its failure was handed
// back through ReturnCut), and records the task's resident epochs when
// it lost one since the previous cut.
func (b *SegmentBuf) take(t *task) {
	clear(t.cutEpochs)
	t.dirtyEpochs, t.cutEpochs = t.cutEpochs, t.dirtyEpochs
	t.lastDirtyOK = false
	t.cutLost, t.lostEpochs = t.lostEpochs, false
	if t.cutLost {
		from := len(b.resident)
		b.resident = append(b.resident, t.state.epochs()...)
		b.lost = append(b.lost, lostSpan{store: t.key.store, part: t.key.part, from: from, to: len(b.resident)})
	}
}

// Gone reports whether the cut found the segment's epoch gone from its
// task: the task lost an epoch since the previous cut, and this one is
// not among its resident epochs. A chain segment that is gone becomes a
// tombstone.
func (b *SegmentBuf) Gone(k SegKey) bool {
	for _, l := range b.lost {
		if l.store == k.Store && l.part == k.Part {
			return !slices.Contains(b.resident[l.from:l.to], k.Epoch)
		}
	}
	return false
}

// next returns the next column copy, emptied with its arrays kept.
func (b *SegmentBuf) next() *colSegment {
	if b.nCols == len(b.cols) {
		b.cols = append(b.cols, &colSegment{})
	}
	cp := b.cols[b.nCols]
	b.nCols++
	*cp = colSegment{seqs: cp.seqs[:0], ts: cp.ts[:0], sch: cp.sch[:0], schemas: cp.schemas[:0], cols: cp.cols[:0]}
	return cp
}

// copyCols copies a columnar epoch into the next column copy.
func (b *SegmentBuf) copyCols(s *colSegment) Segment {
	cp := b.next()
	s.copyTo(cp)
	return cp.view()
}

// LoadTaskEpoch inserts a checkpointed segment's rows directly into the
// task and epoch its key names, with full gauge and byte accounting —
// the recovery layer's restore primitive (a composed
// incremental-checkpoint chain is a set of per-task-epoch segments). The
// topology must be installed and the engine quiet; like Restore, it
// bypasses flow control entirely.
func (e *Engine) LoadTaskEpoch(sg *Segment) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t := e.taskAt(sg.Key.Store, sg.Key.Part)
	if t == nil {
		return fmt.Errorf("%w %s/%d (install the topology first)", ErrUnknownTask, sg.Key.Store, sg.Key.Part)
	}
	t.markDirty(sg.Key.Epoch)
	// A store that copies its rows reads each one out of the scratch; the
	// container keeps the pointer, so it gets a tuple per row.
	var scratch tuple.Tuple
	for i, seq := range sg.Seqs {
		tp := &scratch
		if e.storesCopy {
			sg.row(i, tp)
		} else {
			tp = sg.Tuple(i)
		}
		delta, idxDelta := t.state.insert(tp, seq, sg.Key.Epoch)
		t.storedCount.Add(1)
		e.metrics.stored.Add(1)
		t.accountState(delta, idxDelta)
	}
	return nil
}
