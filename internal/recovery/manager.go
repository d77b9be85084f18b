package recovery

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"clash/internal/runtime"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// ErrStorageNotEmpty is returned by NewManager when the storage already
// holds a log: starting a fresh journal over existing history would
// silently orphan it. Recover from existing storage instead.
var ErrStorageNotEmpty = errors.New("recovery: storage not empty (use Recover)")

// Config tunes the recovery manager.
type Config struct {
	// CheckpointEvery is the number of ingested source records between
	// automatic incremental checkpoints (via MaybeCheckpoint; default
	// 64). Smaller values shorten replay at the cost of more frequent
	// state walks.
	CheckpointEvery int
}

func (c Config) checkpointEvery() int {
	if c.CheckpointEvery <= 0 {
		return 64
	}
	return c.CheckpointEvery
}

// Manager is the engine-side face of the recovery layer: it implements
// runtime.Journal (write-ahead logging of ingests, prunes, and evicts)
// and takes periodic incremental checkpoints of the engine's
// materialized state. One Manager serves one engine; all methods are
// safe for concurrent use (LogEvict arrives from task goroutines).
type Manager struct {
	mu        sync.Mutex
	st        Storage
	cfg       Config
	eng       *runtime.Engine
	walPos    int64
	anchorPos int64 // WAL anchor of the newest durable checkpoint
	// lastFPs fingerprints every segment of the chain: the composed
	// state a recovery would load.
	lastFPs map[runtime.SegKey]uint64
	// born holds the StorePin.Born of every store the newest durable
	// record pins: a store pinned under another number since was retired
	// and introduced again.
	born      map[topology.StoreID]uint64
	sinceCkpt int // ingest records since the last checkpoint
	ckpts     int
	ckptBytes int64
	onCommit  []func()
	scratch   []byte
	payload   []byte // reused record-encoding buffer for the hot log path
}

// NewManager starts a fresh journal over empty storage. Bind an engine
// and attach the Manager with its SetJournal before ingesting.
func NewManager(st Storage, cfg Config) (*Manager, error) {
	for _, stream := range []string{StreamWAL, StreamCheckpoint} {
		b, err := st.Load(stream)
		if err != nil {
			return nil, fmt.Errorf("recovery: reading %s: %w", stream, err)
		}
		if len(b) != 0 {
			return nil, fmt.Errorf("%w: stream %s has %d bytes", ErrStorageNotEmpty, stream, len(b))
		}
	}
	return &Manager{st: st, cfg: cfg, lastFPs: map[runtime.SegKey]uint64{}}, nil
}

// Bind attaches the engine whose state Checkpoint walks. Recover calls
// it on the recovered engine; fresh starts call it once after New.
func (m *Manager) Bind(eng *runtime.Engine) {
	m.mu.Lock()
	m.eng = eng
	m.mu.Unlock()
}

// OnCommit registers a hook invoked after every durable checkpoint —
// the output-commit point. CommittedSink plugs its Commit in here:
// results released downstream are exactly those covered by a durable
// checkpoint, so a crash never double-delivers (replay regenerates
// only uncommitted results).
func (m *Manager) OnCommit(fn func()) {
	m.mu.Lock()
	m.onCommit = append(m.onCommit, fn)
	m.mu.Unlock()
}

// appendWAL frames and appends one record payload, advancing the
// position. Caller holds m.mu.
func (m *Manager) appendWAL(payload []byte) error {
	framed := runtime.AppendFrame(m.scratch[:0], payload)
	if err := m.st.Append(StreamWAL, framed); err != nil {
		return err
	}
	m.walPos += int64(len(framed))
	m.scratch = framed[:0]
	return nil
}

// LogIngest implements runtime.Journal: one ingest record per admitted
// source tuple, appended before the tuple takes any effect.
func (m *Manager) LogIngest(rel string, ts tuple.Time, vals []tuple.Value, seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.payload = appendIngestRecord(m.payload[:0], rel, ts, vals, seq)
	err := m.appendWAL(m.payload)
	if err == nil {
		m.sinceCkpt++
	}
	return err
}

// LogPrune implements runtime.Journal.
func (m *Manager) LogPrune(cut tuple.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.payload = appendPruneRecord(m.payload[:0], cut)
	return m.appendWAL(m.payload)
}

// LogEvict implements runtime.Journal: an observed bounded-memory
// decision, recorded so recovery can verify re-made evictions.
func (m *Manager) LogEvict(store topology.StoreID, part int, epoch int64, tuples int, seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.payload = appendEvictRecord(m.payload[:0], string(store), part, epoch, tuples, seq)
	return m.appendWAL(m.payload)
}

// MaybeCheckpoint takes an incremental checkpoint when enough source
// records accumulated since the last one. Call it from the ingesting
// goroutine between ingests (never from inside a sink callback — the
// state walk drains the engine).
func (m *Manager) MaybeCheckpoint() error {
	m.mu.Lock()
	due := m.sinceCkpt >= m.cfg.checkpointEvery()
	m.mu.Unlock()
	if !due {
		return nil
	}
	return m.Checkpoint()
}

// Checkpoint takes one incremental checkpoint now: drain the engine,
// walk its state, emit the changed segments and tombstones anchored at
// the current WAL position, and run the commit hooks. A tombstone drops
// a chain segment that emptied (a prune or eviction), or one whose store
// the record does not pin: a store absent from the engine's pins was
// retired (or never installed, for a stale segment Recover loaded
// around), so none of its segments may reach the next recovery. A store
// pinned anew since the last record (StorePin.Born) was retired and
// introduced again, so the same holds for every segment of it that this
// record does not rewrite. The WAL-before-
// checkpoint order makes the anchor safe: every tuple reflected in the
// walked state already has its record at a position <= the anchor.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	eng := m.eng
	m.mu.Unlock()
	if eng == nil {
		return errors.New("recovery: no engine bound")
	}

	// Walk only the dirty delta — segments mutated since the last
	// checkpoint — outside m.mu: the drain inside the walk can trigger
	// evictions, which re-enter this Manager through LogEvict.
	segs, err := eng.Segments(true)
	if err != nil {
		return err
	}

	m.mu.Lock()
	// Quiesced and single-producer: nothing appended to the WAL between
	// the walk's completion and this anchor read.
	rec := runtime.StateRecord{Anchor: m.walPos, Seq: eng.Seq(), Watermark: int64(eng.Watermark()), Pins: eng.Pins()}
	var fps []uint64 // fingerprint of each rec.Segs entry, recorded once the append is durable
	for i := range segs {
		if segs[i].Len() == 0 {
			// Dirty but empty: the segment vanished (prune/evict) —
			// a tombstone if the chain ever emitted it.
			if _, live := m.lastFPs[segs[i].Key]; live {
				rec.Drops = append(rec.Drops, segs[i].Key)
			}
			continue
		}
		if fp := fingerprint(&segs[i]); m.lastFPs[segs[i].Key] != fp {
			rec.Segs = append(rec.Segs, segs[i])
			fps = append(fps, fp)
		}
	}
	born := bornOf(rec.Pins)
	for k := range m.lastFPs {
		b, pinned := born[k.Store]
		if !pinned || b != m.born[k.Store] && !walked(segs, k) {
			rec.Drops = append(rec.Drops, k)
		}
	}
	slices.SortFunc(rec.Drops, runtime.SegKey.Compare)
	framed := runtime.AppendFrame(nil, runtime.AppendStateRecord(nil, &rec))
	if err := m.st.Append(StreamCheckpoint, framed); err != nil {
		m.mu.Unlock()
		return fmt.Errorf("recovery: checkpoint append: %w", err)
	}
	for _, k := range rec.Drops {
		delete(m.lastFPs, k)
	}
	for i := range rec.Segs {
		m.lastFPs[rec.Segs[i].Key] = fps[i]
	}
	m.born = born
	m.anchorPos = rec.Anchor
	m.sinceCkpt = 0
	m.ckpts++
	m.ckptBytes += int64(len(framed))
	hooks := m.onCommit
	m.mu.Unlock()
	// The record is durable: the walked delta is accounted for.
	eng.ClearDirty()

	// The checkpoint is durable: release buffered output.
	for _, fn := range hooks {
		fn()
	}
	return nil
}

// bornOf maps each pinned store to its StorePin.Born.
func bornOf(pins []runtime.StorePin) map[topology.StoreID]uint64 {
	born := make(map[topology.StoreID]uint64, len(pins))
	for _, p := range pins {
		born[p.Store] = p.Born
	}
	return born
}

// walked reports whether the walk, in walk order, holds the segment.
func walked(segs []runtime.Segment, k runtime.SegKey) bool {
	_, ok := slices.BinarySearchFunc(segs, k, func(s runtime.Segment, k runtime.SegKey) int { return s.Key.Compare(k) })
	return ok
}

// ManagerStats reports the journal's footprint.
type ManagerStats struct {
	WALBytes        int64 // bytes appended to the WAL (valid prefix)
	CheckpointBytes int64 // bytes of checkpoint records written by this Manager
	Checkpoints     int   // checkpoint records written by this Manager
}

// LastAnchor returns the WAL position of the newest durable checkpoint
// (0 before the first). WAL bytes at or before it are covered by an
// acknowledged commit point; fault injection that models unsynced-tail
// loss must only tear bytes past it.
func (m *Manager) LastAnchor() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.anchorPos
}

// Stats returns the Manager's current footprint counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ManagerStats{WALBytes: m.walPos, CheckpointBytes: m.ckptBytes, Checkpoints: m.ckpts}
}

// Close takes a final checkpoint (committing buffered output) — the
// graceful-shutdown path loses nothing and leaves a minimal replay
// suffix. Storage handles are the caller's to close (DirStorage.Close).
func (m *Manager) Close() error {
	m.mu.Lock()
	dirty := m.sinceCkpt > 0 || m.ckpts == 0
	eng := m.eng
	m.mu.Unlock()
	if dirty && eng != nil && eng.Failure() == nil {
		return m.Checkpoint()
	}
	return nil
}
