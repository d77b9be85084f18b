package recovery

// Write-ahead log format (DESIGN.md §11). Both streams (WAL and
// checkpoint log) are sequences of records in the runtime's one frame
// (runtime.AppendFrame: uvarint length ‖ crc32c ‖ payload):
//
//	wal rec  := kind(1) body
//	  ingest := seq(uvarint) len(rel)(uvarint) rel ts(varint)
//	            nvals(uvarint) value*          — tuple codec values
//	  prune  := cut(varint)
//	  evict  := len(store)(uvarint) store part(uvarint) epoch(varint)
//	            tuples(uvarint) seq(uvarint)
//
// The frame scanner consumes the longest valid prefix and stops at the
// first incomplete or CRC-failing frame: a torn tail — the expected
// artifact of a crash mid-write — costs exactly the unflushed suffix,
// never the log. A frame whose CRC passes but whose payload does not
// decode is real corruption and fails recovery with ErrCorruptWAL.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clash/internal/runtime"
	"clash/internal/tuple"
)

// ErrCorruptWAL is reported (wrapped) when a CRC-valid record fails to
// decode — structural corruption, as opposed to a torn tail, which
// recovery silently truncates.
var ErrCorruptWAL = errors.New("recovery: corrupt write-ahead log")

// WAL record kinds.
const (
	walIngest byte = 1
	walPrune  byte = 2
	walEvict  byte = 3
)

// FrameEnds returns the end offset of every valid frame in the stream —
// the record boundaries chaos tests crash at (each offset is a state a
// real crash can leave the stream in after tail truncation).
func FrameEnds(b []byte) []int64 {
	frames, _ := runtime.ScanFrames(b)
	ends := make([]int64, len(frames))
	for i, fr := range frames {
		ends[i] = fr.End
	}
	return ends
}

// walRecord is one decoded WAL record (exactly one of the three kinds).
type walRecord struct {
	kind byte
	end  int64 // stream offset just past this record's frame

	// ingest
	seq  uint64
	rel  string
	ts   tuple.Time
	vals []tuple.Value

	// prune
	cut tuple.Time

	// evict
	store  string
	part   int
	epoch  int64
	tuples int
}

// appendIngestRecord encodes one ingest record payload.
func appendIngestRecord(buf []byte, rel string, ts tuple.Time, vals []tuple.Value, seq uint64) []byte {
	buf = append(buf, walIngest)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(rel)))
	buf = append(buf, rel...)
	buf = binary.AppendVarint(buf, int64(ts))
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = tuple.AppendValue(buf, v)
	}
	return buf
}

// appendPruneRecord encodes one prune record payload.
func appendPruneRecord(buf []byte, cut tuple.Time) []byte {
	buf = append(buf, walPrune)
	return binary.AppendVarint(buf, int64(cut))
}

// appendEvictRecord encodes one evict record payload.
func appendEvictRecord(buf []byte, store string, part int, epoch int64, tuples int, seq uint64) []byte {
	buf = append(buf, walEvict)
	buf = binary.AppendUvarint(buf, uint64(len(store)))
	buf = append(buf, store...)
	buf = binary.AppendUvarint(buf, uint64(part))
	buf = binary.AppendVarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(tuples))
	return binary.AppendUvarint(buf, seq)
}

// decodeWALRecord decodes one framed WAL payload.
func decodeWALRecord(b []byte) (walRecord, error) {
	var rec walRecord
	if len(b) == 0 {
		return rec, fmt.Errorf("%w: empty record", ErrCorruptWAL)
	}
	rec.kind = b[0]
	b = b[1:]
	switch rec.kind {
	case walIngest:
		seq, n := binary.Uvarint(b)
		if n <= 0 {
			return rec, fmt.Errorf("%w: truncated ingest seq", ErrCorruptWAL)
		}
		b = b[n:]
		l, n := binary.Uvarint(b)
		if n <= 0 || l > uint64(len(b)-n) {
			return rec, fmt.Errorf("%w: truncated relation name", ErrCorruptWAL)
		}
		rec.rel = string(b[n : n+int(l)])
		b = b[n+int(l):]
		ts, n := binary.Varint(b)
		if n <= 0 {
			return rec, fmt.Errorf("%w: truncated ingest timestamp", ErrCorruptWAL)
		}
		b = b[n:]
		nv, n := binary.Uvarint(b)
		if n <= 0 || nv > uint64(len(b)-n) {
			return rec, fmt.Errorf("%w: bad ingest value count", ErrCorruptWAL)
		}
		b = b[n:]
		rec.seq, rec.ts = seq, tuple.Time(ts)
		rec.vals = make([]tuple.Value, 0, nv)
		for i := uint64(0); i < nv; i++ {
			var v tuple.Value
			var err error
			v, b, err = tuple.DecodeValue(b)
			if err != nil {
				return rec, fmt.Errorf("%w: ingest value %d: %v", ErrCorruptWAL, i, err)
			}
			rec.vals = append(rec.vals, v)
		}
	case walPrune:
		cut, n := binary.Varint(b)
		if n <= 0 {
			return rec, fmt.Errorf("%w: truncated prune cutoff", ErrCorruptWAL)
		}
		b = b[n:]
		rec.cut = tuple.Time(cut)
	case walEvict:
		l, n := binary.Uvarint(b)
		if n <= 0 || l > uint64(len(b)-n) {
			return rec, fmt.Errorf("%w: truncated evict store", ErrCorruptWAL)
		}
		rec.store = string(b[n : n+int(l)])
		b = b[n+int(l):]
		part, n := binary.Uvarint(b)
		if n <= 0 {
			return rec, fmt.Errorf("%w: truncated evict partition", ErrCorruptWAL)
		}
		b = b[n:]
		epoch, n := binary.Varint(b)
		if n <= 0 {
			return rec, fmt.Errorf("%w: truncated evict epoch", ErrCorruptWAL)
		}
		b = b[n:]
		tuples, n := binary.Uvarint(b)
		if n <= 0 {
			return rec, fmt.Errorf("%w: truncated evict tuple count", ErrCorruptWAL)
		}
		b = b[n:]
		seq, n := binary.Uvarint(b)
		if n <= 0 {
			return rec, fmt.Errorf("%w: truncated evict seq", ErrCorruptWAL)
		}
		b = b[n:]
		rec.part, rec.epoch, rec.tuples, rec.seq = int(part), epoch, int(tuples), seq
	default:
		return rec, fmt.Errorf("%w: unknown record kind %d", ErrCorruptWAL, rec.kind)
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("%w: %d trailing bytes in record", ErrCorruptWAL, len(b))
	}
	return rec, nil
}
