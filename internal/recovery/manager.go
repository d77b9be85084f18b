package recovery

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
	// 64). A checkpoint due while the previous one still commits is cut
	// later, but never more than twice this many records after the last
	// cut. Smaller values shorten replay at the cost of more frequent
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
//
// A checkpoint runs in two steps. The cut (Cut) runs on the ingesting
// goroutine under the engine's drain: it copies the dirty segments into
// buffers the Manager keeps, takes the dirty marks, reads the anchor,
// and marks the commit hooks. The commit (AppendCut, then ReleaseCut)
// fingerprints, encodes and appends the record, publishes it, and
// releases the hooks — beside the stream on an engine whose tasks run
// concurrently, inline otherwise. At most one cut is in flight.
type Manager struct {
	mu        sync.Mutex
	st        Storage
	cfg       Config
	eng       *runtime.Engine
	walPos    int64
	anchorPos int64 // WAL anchor of the newest durable checkpoint
	sinceCkpt int   // ingest records since the last cut
	ckpts     int
	ckptBytes int64
	onCommit  []Committer
	scratch   []byte
	payload   []byte // reused record-encoding buffer for the hot log path
	// err is a failed commit's error: the engine failed with it, and
	// every later checkpoint call returns it. returnCut is set until the
	// failed cut's dirty marks are handed back to the engine.
	err       error
	returnCut bool

	// busy is set from a cut until its commit ends, and inflight is
	// held for the same span (locked on the ingesting goroutine, unlocked
	// by the commit's), for those who wait.
	busy     atomic.Bool
	inflight sync.Mutex
	cut      cut

	// The commit's own state, touched by one commit at a time.
	// lastFPs fingerprints every segment of the chain: the composed
	// state a recovery would load.
	lastFPs map[runtime.SegKey]uint64
	// born holds the StorePin.Born of every store the newest durable
	// record pins: a store pinned under another number since was retired
	// and introduced again. nextBorn is the record being committed's.
	born, nextBorn map[topology.StoreID]uint64
	fps            []uint64 // fingerprint of each record segment
	enc            runtime.StateEncoder
	record, frame  []byte
}

// cut is a checkpoint between its cut and its commit: the copied
// segments, the record's header, and the hooks it marked.
type cut struct {
	buf   runtime.SegmentBuf
	segs  []runtime.Segment
	rec   runtime.StateRecord
	hooks []Committer
}

// Committer is an output-commit hook in two phases (Manager.OnCommit).
// Mark runs at a checkpoint's cut, on the ingesting goroutine with the
// engine drained: every result delivered so far comes from inputs at or
// before the cut's sequence number seq, which the record being cut
// covers. Release runs once that record is durable, on the goroutine
// that committed it, before the next Mark. A sink buffers its results,
// remembers at Mark how many are pending, and releases exactly those at
// Release; results delivered after the Mark wait for the next record.
type Committer interface {
	Mark(seq uint64)
	Release()
}

func newManager(st Storage, cfg Config) *Manager {
	return &Manager{st: st, cfg: cfg, lastFPs: map[runtime.SegKey]uint64{},
		born: map[topology.StoreID]uint64{}, nextBorn: map[topology.StoreID]uint64{}}
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
	return newManager(st, cfg), nil
}

// Bind attaches the engine whose state Checkpoint walks. Recover calls
// it on the recovered engine; fresh starts call it once after New.
func (m *Manager) Bind(eng *runtime.Engine) {
	m.mu.Lock()
	m.eng = eng
	m.mu.Unlock()
}

// OnCommit registers an output-commit hook: it is marked at every
// checkpoint's cut and released once that checkpoint is durable.
// CommittedSink is one: results released downstream are exactly those
// covered by a durable checkpoint, so a crash never double-delivers
// (replay regenerates only uncommitted results).
func (m *Manager) OnCommit(c Committer) {
	m.mu.Lock()
	m.onCommit = append(m.onCommit, c)
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
// records accumulated since the last cut. Call it from the ingesting
// goroutine between ingests (never from inside a sink callback — the
// cut drains the engine). It returns once the cut is taken; on an
// engine whose tasks run concurrently the commit runs beside the
// stream, otherwise inline. A checkpoint that comes due while a commit
// is in flight waits for a later call, until twice the cadence has
// passed since the last cut: then the caller waits for the commit and
// cuts, so replay after a crash stays within two cadences.
func (m *Manager) MaybeCheckpoint() error {
	if m.busy.Load() {
		m.mu.Lock()
		overdue := m.sinceCkpt >= 2*m.cfg.checkpointEvery()
		m.mu.Unlock()
		if !overdue {
			return nil
		}
		m.Wait()
	}
	if err := m.failure(); err != nil {
		return err
	}
	if !m.Due() {
		return nil
	}
	if err := m.Cut(); err != nil {
		return err
	}
	if m.eng.Concurrent() {
		go m.commit()
		return nil
	}
	return m.commit()
}

// Checkpoint takes one incremental checkpoint now and returns once it is
// durable and its hooks released: it waits for a commit in flight, cuts,
// and commits on the calling goroutine.
func (m *Manager) Checkpoint() error {
	m.Wait()
	if err := m.failure(); err != nil {
		return err
	}
	if err := m.Cut(); err != nil {
		return err
	}
	return m.commit()
}

// Due reports whether an automatic checkpoint is due: enough source
// records since the last cut, and no cut in flight.
func (m *Manager) Due() bool {
	if m.busy.Load() {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sinceCkpt >= m.cfg.checkpointEvery()
}

// Wait returns once the commit in flight, if any, has ended. It starts
// none. Do not call it from a commit hook.
func (m *Manager) Wait() {
	m.inflight.Lock()
	m.inflight.Unlock()
}

// failure returns a failed commit's error, first handing the failed
// cut's dirty marks back to the engine (the caller is the ingesting
// goroutine, which can drain it).
func (m *Manager) failure() error {
	m.mu.Lock()
	err, ret, eng := m.err, m.returnCut, m.eng
	m.returnCut = false
	m.mu.Unlock()
	if ret {
		eng.ReturnCut()
	}
	return err
}

// Cut takes a checkpoint's cut: it drains the engine, copies the dirty
// segments into the Manager's cut buffers and takes their dirty marks
// (runtime.Engine.CutSegments), reads the anchor — the WAL position,
// sequence number, watermark and pins the copied state reflects — and
// marks every commit hook. Call it on the ingesting goroutine with no
// cut in flight; AppendCut and ReleaseCut commit it. MaybeCheckpoint and
// Checkpoint call all three; the simulation harness schedules them
// itself.
func (m *Manager) Cut() error {
	m.mu.Lock()
	eng := m.eng
	m.mu.Unlock()
	if eng == nil {
		return errors.New("recovery: no engine bound")
	}
	if m.busy.Load() {
		return errors.New("recovery: a checkpoint cut is already in flight")
	}
	// The walk runs outside m.mu: the drain inside it can trigger
	// evictions, which re-enter this Manager through LogEvict.
	c := &m.cut
	segs, err := eng.CutSegments(&c.buf)
	if err != nil {
		return err
	}
	c.segs = segs
	c.rec.Seq, c.rec.Watermark = eng.Seq(), int64(eng.Watermark())
	c.rec.Pins = eng.AppendPins(c.rec.Pins[:0])
	m.mu.Lock()
	// Quiesced and single-producer: nothing appended to the WAL between
	// the walk's completion and this anchor read.
	c.rec.Anchor = m.walPos
	c.hooks = m.onCommit
	m.sinceCkpt = 0
	m.mu.Unlock()
	m.inflight.Lock()
	m.busy.Store(true)
	for _, h := range c.hooks {
		h.Mark(c.rec.Seq)
	}
	return nil
}

// commit runs the cut's commit to its end. A failure fails the engine.
func (m *Manager) commit() error {
	if err := m.AppendCut(); err != nil {
		return err
	}
	m.ReleaseCut()
	return nil
}

// AppendCut writes the cut's record: it fingerprints the copied
// segments, emits those that changed since the last record and
// tombstones for the chain segments that vanished (a prune or eviction
// emptied them), or whose store the record does not pin — a store
// absent from the engine's pins was retired (or never installed, for a
// stale segment Recover loaded around), so none of its segments may
// reach the next recovery. A store pinned anew since the last record
// (StorePin.Born) was retired and introduced again, so the same holds
// for every segment of it that this record does not rewrite. Then it
// encodes the record into buffers it keeps, appends it, and publishes
// it. The WAL-before-checkpoint order makes the anchor safe: every tuple
// reflected in the copied state has its record at a position <= the
// anchor. A failed append fails the engine and ends the cut; its dirty
// marks go back to the engine on the next checkpoint call.
func (m *Manager) AppendCut() error {
	c := &m.cut
	rec := &c.rec
	rec.Segs, rec.Drops, m.fps = rec.Segs[:0], rec.Drops[:0], m.fps[:0]
	for i := range c.segs {
		sg := &c.segs[i]
		if sg.Len() == 0 {
			continue // a tombstone below, if the chain holds the segment
		}
		if fp := fingerprint(sg); m.lastFPs[sg.Key] != fp {
			rec.Segs = append(rec.Segs, *sg)
			m.fps = append(m.fps, fp)
		}
	}
	clear(m.nextBorn)
	for _, p := range rec.Pins {
		m.nextBorn[p.Store] = p.Born
	}
	for k := range m.lastFPs {
		b, pinned := m.nextBorn[k.Store]
		n, walked := walkedLen(c.segs, k)
		if !pinned || b != m.born[k.Store] && !walked || walked && n == 0 || c.buf.Gone(k) {
			rec.Drops = append(rec.Drops, k)
		}
	}
	slices.SortFunc(rec.Drops, runtime.SegKey.Compare)
	m.record = m.enc.Append(m.record[:0], rec)
	m.frame = runtime.AppendFrame(m.frame[:0], m.record)
	if err := m.st.Append(StreamCheckpoint, m.frame); err != nil {
		err = fmt.Errorf("recovery: checkpoint append: %w", err)
		m.mu.Lock()
		m.err, m.returnCut = err, true
		m.mu.Unlock()
		m.eng.Fail(err)
		m.end()
		return err
	}
	for _, k := range rec.Drops {
		delete(m.lastFPs, k)
	}
	for i := range rec.Segs {
		m.lastFPs[rec.Segs[i].Key] = m.fps[i]
	}
	m.born, m.nextBorn = m.nextBorn, m.born
	m.mu.Lock()
	m.anchorPos = rec.Anchor
	m.ckpts++
	m.ckptBytes += int64(len(m.frame))
	m.mu.Unlock()
	return nil
}

// ReleaseCut releases every hook the cut marked — its record is durable
// — and ends the cut.
func (m *Manager) ReleaseCut() {
	for _, h := range m.cut.hooks {
		h.Release()
	}
	m.end()
}

// end ends the cut in flight.
func (m *Manager) end() {
	m.busy.Store(false)
	m.inflight.Unlock()
}

// walkedLen reports whether the cut, in walk order, holds the segment,
// and its row count.
func walkedLen(segs []runtime.Segment, k runtime.SegKey) (int, bool) {
	i, ok := slices.BinarySearchFunc(segs, k, func(s runtime.Segment, k runtime.SegKey) int { return s.Key.Compare(k) })
	if !ok {
		return 0, false
	}
	return segs[i].Len(), true
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

// Stats returns the Manager's footprint counters once the commit in
// flight, if any, has ended. Do not call it from a commit hook.
func (m *Manager) Stats() ManagerStats {
	m.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	return ManagerStats{WALBytes: m.walPos, CheckpointBytes: m.ckptBytes, Checkpoints: m.ckpts}
}

// Close waits for the commit in flight and takes a final checkpoint
// (committing buffered output) — the graceful-shutdown path loses
// nothing and leaves a minimal replay suffix. Storage handles are the
// caller's to close (DirStorage.Close).
func (m *Manager) Close() error {
	m.Wait()
	if err := m.failure(); err != nil {
		return err
	}
	m.mu.Lock()
	dirty := m.sinceCkpt > 0 || m.ckpts == 0
	eng := m.eng
	m.mu.Unlock()
	if dirty && eng != nil && eng.Failure() == nil {
		return m.Checkpoint()
	}
	return nil
}
