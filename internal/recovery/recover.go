package recovery

import (
	"bytes"
	"errors"
	"fmt"

	"clash/internal/runtime"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// ErrStaleChain is returned when the checkpoint chain references stores
// in no known topology: not a single chain segment matches a store the
// recovering engine has installed. That means the wrong workload (or the
// wrong storage) — fail closed rather than silently discard all state.
//
// A chain that is only partially stale — some segments match installed
// stores, others belong to stores a rewiring retired before the crash
// (the rewiring→checkpoint window) — recovers automatically: the live
// segments load, the stale ones are skipped, WAL records of the departed
// relations are skipped as foreign, and a reconciling checkpoint
// tombstones the stale segments before Recover returns, so the next
// recovery sees a clean chain.
var ErrStaleChain = errors.New("recovery: checkpoint chain references stores in no known topology")

// Stats describes one recovery: what the checkpoint chain restored,
// what the WAL suffix replayed, and what a crash tore off.
type Stats struct {
	CheckpointRecords int // usable incremental checkpoint records composed
	RestoredTuples    int // tuples loaded from the composed checkpoint state
	ReplayedIngests   int // ingest records re-executed past the anchor
	SkippedIngests    int // ingest records already covered by the checkpoint
	ReplayedPrunes    int // prune records re-executed past the anchor
	// EvictMismatches counts logged post-anchor evictions the replay did
	// not re-make identically (and vice versa). Deterministic replays
	// re-make every eviction; a nonzero count flags a drifting replay.
	EvictMismatches     int
	TornWALBytes        int64 // torn tail truncated off the WAL
	TornCheckpointBytes int64 // torn/unusable tail truncated off the checkpoint log
	// StaleSegments counts chain segments belonging to stores the
	// recovering topology no longer has (retired before the crash,
	// tombstone checkpoint never taken). They are skipped and tombstoned
	// by the reconciling checkpoint Recover takes before returning.
	StaleSegments int
	// ForeignIngests counts replayed WAL records of relations absent
	// from the recovering catalog — input to retired stores only. Their
	// sequence numbers and watermarks are accounted without effect.
	ForeignIngests int
	AnchorSeq      uint64
	LastSeq        uint64 // engine sequence number after replay
}

// captureJournal is attached during replay: ingests and prunes being
// replayed are already in the log (re-appending would double them), and
// re-made evictions are captured for verification against the log.
type captureJournal struct {
	evicts []walRecord
}

func (c *captureJournal) LogIngest(string, tuple.Time, []tuple.Value, uint64) error { return nil }
func (c *captureJournal) LogPrune(tuple.Time) error                                 { return nil }
func (c *captureJournal) LogEvict(store topology.StoreID, part int, epoch int64, tuples int, seq uint64) error {
	c.evicts = append(c.evicts, walRecord{store: string(store), part: part, epoch: epoch, tuples: tuples, seq: seq})
	return nil
}

// Recover rebuilds a freshly configured engine from the storage left by
// a crashed (or cleanly closed) run: truncate torn tails, compose the
// newest usable checkpoint chain into the engine's stores, replay the
// WAL suffix past the chain's anchor, and return a Manager already
// attached as the engine's journal so the run continues under the same
// log. The engine must have the crashed run's topology installed and
// must not have ingested anything yet.
func Recover(st Storage, eng *runtime.Engine, cfg Config) (*Manager, *Stats, error) {
	stats := &Stats{}

	walBytes, err := st.Load(StreamWAL)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: reading WAL: %w", err)
	}
	walFrames, validWAL := runtime.ScanFrames(walBytes)
	stats.TornWALBytes = tornBytes(walBytes, validWAL)
	walRecords := make([]walRecord, len(walFrames))
	for i, fr := range walFrames {
		rec, err := decodeWALRecord(fr.Payload)
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: WAL record %d: %w", i, err)
		}
		rec.end = fr.End
		walRecords[i] = rec
	}

	ckptBytes, err := st.Load(StreamCheckpoint)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: reading checkpoint log: %w", err)
	}
	ckptFrames, _ := runtime.ScanFrames(ckptBytes)
	// Usable prefix: decodable records anchored within the surviving WAL.
	// A checkpoint that outlived its WAL tail (the streams are separate
	// files; a crash can tear them independently) references replay state
	// that no longer exists, so it and everything after it are discarded.
	var records []*runtime.StateRecord
	usableCkpt := int64(0)
	for i, fr := range ckptFrames {
		rec, err := decodeCkptRecord(fr.Payload)
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: checkpoint record %d: %w", i, err)
		}
		if rec.Anchor > validWAL {
			break
		}
		records = append(records, rec)
		usableCkpt = fr.End
	}
	stats.TornCheckpointBytes = tornBytes(ckptBytes, usableCkpt)
	stats.CheckpointRecords = len(records)

	// Make the surviving prefixes the whole truth before touching the
	// engine: once truncated, a second crash during recovery replays the
	// exact same state.
	if err := st.Truncate(StreamWAL, validWAL); err != nil {
		return nil, nil, fmt.Errorf("recovery: truncating WAL: %w", err)
	}
	if err := st.Truncate(StreamCheckpoint, usableCkpt); err != nil {
		return nil, nil, fmt.Errorf("recovery: truncating checkpoint log: %w", err)
	}

	// Re-impose the crashed run's pinned routing before any state loads
	// or replay: split-key sets are pinned at first sight from the
	// caller's estimates, so a recovering engine optimized differently
	// would probe different candidate tasks than the state it restores.
	if len(records) > 0 {
		if err := eng.RestorePins(records[len(records)-1].Pins); err != nil {
			return nil, nil, fmt.Errorf("recovery: restoring pinned routing: %w", err)
		}
	}

	// Load the composed checkpoint state and fast-forward progress to
	// the anchor. Segments of stores the engine has not installed are
	// stale — left behind by a crash in the rewiring→checkpoint window —
	// and are skipped here; they stay in the Manager's view of the chain,
	// so the reconciling checkpoint below tombstones them like those of
	// any store it does not pin. A segment whose store IS installed but
	// whose partition has no task means a layout mismatch and stays
	// fatal.
	segs := composeChain(records)
	lastFPs := make(map[runtime.SegKey]uint64, len(segs))
	var stale []runtime.SegKey
	loaded := 0
	for i := range segs {
		sg := &segs[i]
		if err := eng.LoadTaskEpoch(sg.Key.Store, sg.Key.Part, sg.Key.Epoch, sg.Tuples, sg.Seqs); err != nil {
			if errors.Is(err, runtime.ErrUnknownTask) {
				if eng.HasStore(sg.Key.Store) {
					return nil, nil, fmt.Errorf("recovery: segment %s addresses a partition beyond the installed layout: %w", sg.Key, err)
				}
				stale = append(stale, sg.Key)
				lastFPs[sg.Key] = fingerprint(sg)
				continue
			}
			return nil, nil, fmt.Errorf("recovery: loading segment %s: %w", sg.Key, err)
		}
		loaded++
		stats.RestoredTuples += sg.Len()
		lastFPs[sg.Key] = fingerprint(sg)
	}
	if len(stale) > 0 && loaded == 0 {
		return nil, nil, fmt.Errorf("%w: all %d chain segments (first: %s) match no installed store — recovering with the wrong workload or storage?",
			ErrStaleChain, len(stale), stale[0])
	}
	stats.StaleSegments = len(stale)
	anchorPos := int64(0)
	if len(records) > 0 {
		anchor := records[len(records)-1]
		eng.RestoreProgress(anchor.Seq, anchor.Watermark)
		stats.AnchorSeq = anchor.Seq
		anchorPos = anchor.Anchor
	}

	// Replay the WAL suffix past the anchor. Position-based skipping is
	// the sequence-number dedup: every record at or before the anchor
	// position is already reflected in the restored state, and replaying
	// the rest regenerates the exact sequence numbers the log recorded
	// (asserted per record) because WAL order is seq order.
	capture := &captureJournal{}
	eng.SetJournal(capture)
	var loggedEvicts []walRecord
	for _, rec := range walRecords {
		if rec.end <= anchorPos {
			if rec.kind == walIngest {
				stats.SkippedIngests++
			}
			continue
		}
		switch rec.kind {
		case walIngest:
			if err := eng.Ingest(rec.rel, rec.ts, rec.vals...); err != nil {
				if len(stale) > 0 && errors.Is(err, runtime.ErrUnknownRelation) {
					// Foreign ingest: the relation left the catalog with
					// the retired stores the stale segments belong to. Its
					// effect is gone by construction; account its sequence
					// number and watermark so the remaining replay keeps
					// asserting seq equality. Without stale segments an
					// unknown relation means the wrong workload — fatal.
					eng.RestoreProgress(rec.seq, int64(rec.ts))
					stats.ForeignIngests++
					continue
				}
				eng.SetJournal(nil)
				return nil, nil, fmt.Errorf("recovery: replaying seq %d: %w", rec.seq, err)
			}
			if got := eng.Seq(); got != rec.seq {
				eng.SetJournal(nil)
				return nil, nil, fmt.Errorf("%w: replay produced seq %d for logged seq %d (lossy admission cannot replay)",
					ErrCorruptWAL, got, rec.seq)
			}
			stats.ReplayedIngests++
		case walPrune:
			eng.PruneBefore(rec.cut)
			stats.ReplayedPrunes++
		case walEvict:
			loggedEvicts = append(loggedEvicts, rec)
		}
	}
	eng.Drain()
	eng.SetJournal(nil)
	if err := eng.Failure(); err != nil {
		return nil, nil, fmt.Errorf("recovery: engine failed during replay: %w", err)
	}
	stats.EvictMismatches = diffEvicts(loggedEvicts, capture.evicts)
	stats.LastSeq = eng.Seq()

	// Continue the run under the same log: the Manager picks up at the
	// surviving WAL position, diffing future checkpoints against the
	// restored chain's segments.
	mgr := newManager(st, cfg)
	mgr.eng, mgr.walPos, mgr.anchorPos = eng, validWAL, anchorPos
	mgr.lastFPs, mgr.sinceCkpt = lastFPs, stats.ReplayedIngests
	for _, p := range eng.Pins() {
		mgr.born[p.Store] = p.Born
	}
	eng.SetJournal(mgr)
	if len(stale) > 0 {
		// Reconcile the chain with the slimmed topology now: tombstone the
		// stale segments (and anchor past the foreign WAL records) so a
		// second crash recovers cleanly instead of re-walking this path.
		if err := mgr.Checkpoint(); err != nil {
			return nil, nil, fmt.Errorf("recovery: reconciling checkpoint: %w", err)
		}
	}
	return mgr, stats, nil
}

// tornBytes counts the bytes of b past its usable prefix that a crash
// left, less the zero fill a mapped DirStorage file runs into after its
// last record — fill is preallocation, not a lost record.
func tornBytes(b []byte, usable int64) int64 {
	return int64(len(bytes.TrimRight(b[usable:], "\x00")))
}

// diffEvicts compares logged and re-made evictions as multisets over
// (store, partition, epoch, tuples) — the sequence number at eviction
// time is schedule-dependent bookkeeping, not part of the decision.
func diffEvicts(logged, remade []walRecord) int {
	counts := map[runtime.SegKey]map[int]int{}
	bump := func(r walRecord, d int) {
		k := runtime.SegKey{Store: topology.StoreID(r.store), Part: r.part, Epoch: r.epoch}
		if counts[k] == nil {
			counts[k] = map[int]int{}
		}
		counts[k][r.tuples] += d
	}
	for _, r := range logged {
		bump(r, 1)
	}
	for _, r := range remade {
		bump(r, -1)
	}
	mismatches := 0
	for _, byTuples := range counts {
		for _, n := range byTuples {
			if n > 0 {
				mismatches += n
			} else {
				mismatches -= n
			}
		}
	}
	return mismatches
}
