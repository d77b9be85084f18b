package recovery

// Incremental checkpoints (DESIGN.md §11). Materialized state is
// naturally segmented by (store, partition, epoch) — epochs are
// append-closed once event time moves past them, so most segments never
// change between checkpoints. Each checkpoint record therefore carries
// only the segments whose content fingerprint changed since the last
// record, plus tombstones for segments that disappeared (pruned,
// evicted, or retired), and an anchor: the WAL position, source
// sequence number, and watermark the state reflects. A chain of records
// composes back into the full state at the last anchor; recovery then
// replays the WAL suffix past that anchor.
//
// A record is the runtime's one state record (runtime.StateRecord,
// framed by runtime.AppendFrame) — the format Engine.Checkpoint writes
// a snapshot in. Every record carries the engine's whole pin table
// (parallelism, partitioning attribute and split-key set per store):
// split keys are otherwise derived from the caller's estimates at
// Install time, so a recovering engine optimized with different
// estimates would route differently than the state it is restoring and
// silently diverge from the uninterrupted run. Recovery re-imposes the
// last record's pins before loading state or replaying. The table is
// tiny next to even one state segment, and the last record being
// authoritative keeps composition trivial.
//
// Records are framed exactly like WAL records, so a torn checkpoint
// tail is likewise truncated to the valid prefix.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"clash/internal/runtime"
)

// ErrCorruptCheckpoint is reported (wrapped) when a CRC-valid
// checkpoint record fails to decode.
var ErrCorruptCheckpoint = errors.New("recovery: corrupt checkpoint log")

// decodeCkptRecord decodes one framed checkpoint payload; a CRC-valid
// payload that does not decode is corruption of the log.
func decodeCkptRecord(b []byte) (*runtime.StateRecord, error) {
	rec, err := runtime.DecodeStateRecord(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptCheckpoint, err)
	}
	return rec, nil
}

// fingerprint folds a segment's content into one comparison value. It
// covers each tuple's sequence number and timestamp plus the count —
// stored tuples are immutable once inserted (epoch containers are
// append/drop-only), so (count, seqs, timestamps) pins the content
// without hashing every payload byte on every checkpoint.
func fingerprint(s *runtime.Segment) uint64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(s.Len()))
	h.Write(buf[:n])
	for i, seq := range s.Seqs {
		n = binary.PutUvarint(buf[:], seq)
		h.Write(buf[:n])
		n = binary.PutVarint(buf[:], int64(s.TS(i)))
		h.Write(buf[:n])
	}
	return h.Sum64()
}

// composeChain applies a checkpoint-record chain in order and returns
// the composed state: the segment set at the last record's anchor, in
// the order Engine.Segments walks (store, part, epoch ascending).
func composeChain(records []*runtime.StateRecord) []runtime.Segment {
	state := map[runtime.SegKey]runtime.Segment{}
	for _, rec := range records {
		for _, k := range rec.Drops {
			delete(state, k)
		}
		for _, sg := range rec.Segs {
			state[sg.Key] = sg
		}
	}
	out := make([]runtime.Segment, 0, len(state))
	for _, sg := range state {
		out = append(out, sg)
	}
	slices.SortFunc(out, func(a, b runtime.Segment) int { return a.Key.Compare(b.Key) })
	return out
}
