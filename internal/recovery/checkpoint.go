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
//	ckpt rec := kind(1)=2 walPos(uvarint) seq(uvarint) watermark(varint)
//	            nPins(uvarint)  [len(store) store par(uvarint)
//	                             len(rel) rel len(attr) attr
//	                             nSplit(uvarint) split(uvarint)*]*
//	            nSchemas(uvarint) schema*
//	            nDrops(uvarint) [len(store) store part epoch]*
//	            nSegs(uvarint)  [len(store) store part epoch
//	                             n(uvarint) entry{schemaID seq tuple}*]*
//
// The pin table (kind 2) snapshots the engine's pin-at-first-sight
// routing decisions — parallelism, partitioning attribute, and the
// split-key set per store. Split keys are otherwise derived from the
// caller's estimates at Install time, so a recovering engine optimized
// with different estimates would route differently than the state it is
// restoring and silently diverge from the uninterrupted run. Recovery
// re-imposes the last record's pins before loading state or replaying.
//
// Records are framed exactly like WAL records (wal.go), so a torn
// checkpoint tail is likewise truncated to the valid prefix.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"clash/internal/query"
	"clash/internal/runtime"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// ErrCorruptCheckpoint is reported (wrapped) when a CRC-valid
// checkpoint record fails to decode.
var ErrCorruptCheckpoint = errors.New("recovery: corrupt checkpoint log")

const ckptRecordKind byte = 2

// segKey identifies one checkpointable state segment.
type segKey struct {
	store string
	part  int
	epoch int64
}

func (k segKey) String() string { return fmt.Sprintf("%s/%d@%d", k.store, k.part, k.epoch) }

// segment is one (store, partition, epoch) state slice: the tuples and
// their arrival sequence numbers, in backend storage order.
type segment struct {
	key  segKey
	tps  []*tuple.Tuple
	seqs []uint64
}

// fingerprint folds a segment's content into one comparison value. It
// covers each tuple's sequence number and timestamp plus the count —
// stored tuples are immutable once inserted (epoch containers are
// append/drop-only), so (count, seqs, timestamps) pins the content
// without hashing every payload byte on every checkpoint.
func (s *segment) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s.tps)))
	h.Write(buf[:n])
	for i, tp := range s.tps {
		n = binary.PutUvarint(buf[:], s.seqs[i])
		h.Write(buf[:n])
		n = binary.PutVarint(buf[:], int64(tp.TS))
		h.Write(buf[:n])
	}
	return h.Sum64()
}

// ckptRecord is one decoded incremental checkpoint record.
type ckptRecord struct {
	walPos    int64 // WAL byte position this record's state reflects
	seq       uint64
	watermark int64
	pins      []runtime.StorePin
	drops     []segKey
	segs      []segment
	end       int64 // checkpoint-stream offset just past this record
}

// appendCkptRecord encodes one record payload. Segments must already be
// in deterministic (walk) order; pins carry the engine's full pinned
// layout (every record holds the whole table — it is tiny next to even
// one state segment, and the last record being authoritative keeps
// composition trivial).
func appendCkptRecord(buf []byte, walPos int64, seq uint64, watermark int64, pins []runtime.StorePin, drops []segKey, segs []segment) []byte {
	buf = append(buf, ckptRecordKind)
	buf = binary.AppendUvarint(buf, uint64(walPos))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendVarint(buf, watermark)

	buf = binary.AppendUvarint(buf, uint64(len(pins)))
	for _, p := range pins {
		buf = binary.AppendUvarint(buf, uint64(len(p.Store)))
		buf = append(buf, p.Store...)
		buf = binary.AppendUvarint(buf, uint64(p.Par))
		buf = binary.AppendUvarint(buf, uint64(len(p.Part.Rel)))
		buf = append(buf, p.Part.Rel...)
		buf = binary.AppendUvarint(buf, uint64(len(p.Part.Name)))
		buf = append(buf, p.Part.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(p.Split)))
		for _, h := range p.Split {
			buf = binary.AppendUvarint(buf, h)
		}
	}

	// Per-record schema table over the segments' tuples, keyed by
	// signature. A segment's tuples share one *Schema, so the pointer
	// seen last answers nearly every call without rendering a signature
	// per tuple — the checkpoint runs on the ingesting goroutine, and
	// that string was half of its time.
	schemaID := map[string]int{}
	var schemas []*tuple.Schema
	var last *tuple.Schema
	var lastID int
	idOf := func(s *tuple.Schema) int {
		if s == last {
			return lastID
		}
		sig := s.String()
		id, ok := schemaID[sig]
		if !ok {
			id = len(schemas)
			schemaID[sig] = id
			schemas = append(schemas, s)
		}
		last, lastID = s, id
		return id
	}
	for i := range segs {
		for _, tp := range segs[i].tps {
			idOf(tp.Schema)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(schemas)))
	for _, s := range schemas {
		buf = tuple.AppendSchema(buf, s)
	}

	buf = binary.AppendUvarint(buf, uint64(len(drops)))
	for _, k := range drops {
		buf = binary.AppendUvarint(buf, uint64(len(k.store)))
		buf = append(buf, k.store...)
		buf = binary.AppendUvarint(buf, uint64(k.part))
		buf = binary.AppendVarint(buf, k.epoch)
	}
	buf = binary.AppendUvarint(buf, uint64(len(segs)))
	for i := range segs {
		sg := &segs[i]
		buf = binary.AppendUvarint(buf, uint64(len(sg.key.store)))
		buf = append(buf, sg.key.store...)
		buf = binary.AppendUvarint(buf, uint64(sg.key.part))
		buf = binary.AppendVarint(buf, sg.key.epoch)
		buf = binary.AppendUvarint(buf, uint64(len(sg.tps)))
		for j, tp := range sg.tps {
			buf = binary.AppendUvarint(buf, uint64(idOf(tp.Schema)))
			buf = binary.AppendUvarint(buf, sg.seqs[j])
			buf = tuple.AppendTuple(buf, tp)
		}
	}
	return buf
}

// decodeCkptRecord decodes one framed checkpoint payload.
func decodeCkptRecord(b []byte) (*ckptRecord, error) {
	bad := func(format string, args ...any) (*ckptRecord, error) {
		return nil, fmt.Errorf("%w: %s", ErrCorruptCheckpoint, fmt.Sprintf(format, args...))
	}
	if len(b) == 0 || b[0] != ckptRecordKind {
		return bad("bad record kind")
	}
	b = b[1:]
	rec := &ckptRecord{}
	walPos, n := binary.Uvarint(b)
	if n <= 0 {
		return bad("truncated anchor position")
	}
	b = b[n:]
	seq, n := binary.Uvarint(b)
	if n <= 0 {
		return bad("truncated anchor seq")
	}
	b = b[n:]
	wm, n := binary.Varint(b)
	if n <= 0 {
		return bad("truncated watermark")
	}
	b = b[n:]
	rec.walPos, rec.seq, rec.watermark = int64(walPos), seq, wm

	readStr := func() (string, bool) {
		l, n := binary.Uvarint(b)
		if n <= 0 || l > uint64(len(b)-n) {
			return "", false
		}
		s := string(b[n : n+int(l)])
		b = b[n+int(l):]
		return s, true
	}

	nPins, n := binary.Uvarint(b)
	if n <= 0 || nPins > uint64(len(b)-n) {
		return bad("bad pin count")
	}
	b = b[n:]
	for i := uint64(0); i < nPins; i++ {
		var p runtime.StorePin
		store, ok := readStr()
		if !ok {
			return bad("truncated pin store %d", i)
		}
		p.Store = topology.StoreID(store)
		par, n := binary.Uvarint(b)
		if n <= 0 {
			return bad("truncated pin parallelism (%s)", store)
		}
		b = b[n:]
		p.Par = int(par)
		rel, ok := readStr()
		if !ok {
			return bad("truncated pin partition relation (%s)", store)
		}
		name, ok := readStr()
		if !ok {
			return bad("truncated pin partition attribute (%s)", store)
		}
		p.Part = query.Attr{Rel: rel, Name: name}
		nSplit, n := binary.Uvarint(b)
		if n <= 0 || nSplit > uint64(len(b)-n) {
			return bad("bad split-key count (%s)", store)
		}
		b = b[n:]
		for j := uint64(0); j < nSplit; j++ {
			h, n := binary.Uvarint(b)
			if n <= 0 {
				return bad("truncated split key %d (%s)", j, store)
			}
			b = b[n:]
			p.Split = append(p.Split, h)
		}
		rec.pins = append(rec.pins, p)
	}

	nSchemas, n := binary.Uvarint(b)
	if n <= 0 || nSchemas > uint64(len(b)-n) {
		return bad("bad schema count")
	}
	b = b[n:]
	schemas := make([]*tuple.Schema, nSchemas)
	var err error
	for i := range schemas {
		schemas[i], b, err = tuple.DecodeSchema(b)
		if err != nil {
			return bad("schema %d: %v", i, err)
		}
	}

	readKey := func() (segKey, bool) {
		var k segKey
		l, n := binary.Uvarint(b)
		if n <= 0 || l > uint64(len(b)-n) {
			return k, false
		}
		k.store = string(b[n : n+int(l)])
		b = b[n+int(l):]
		part, n := binary.Uvarint(b)
		if n <= 0 {
			return k, false
		}
		b = b[n:]
		ep, n := binary.Varint(b)
		if n <= 0 {
			return k, false
		}
		b = b[n:]
		k.part, k.epoch = int(part), ep
		return k, true
	}

	nDrops, n := binary.Uvarint(b)
	if n <= 0 || nDrops > uint64(len(b)-n) {
		return bad("bad drop count")
	}
	b = b[n:]
	for i := uint64(0); i < nDrops; i++ {
		k, ok := readKey()
		if !ok {
			return bad("truncated drop %d", i)
		}
		rec.drops = append(rec.drops, k)
	}

	nSegs, n := binary.Uvarint(b)
	if n <= 0 || nSegs > uint64(len(b)-n) {
		return bad("bad segment count")
	}
	b = b[n:]
	for i := uint64(0); i < nSegs; i++ {
		k, ok := readKey()
		if !ok {
			return bad("truncated segment key %d", i)
		}
		nEntries, n := binary.Uvarint(b)
		if n <= 0 {
			return bad("truncated entry count (%s)", k)
		}
		b = b[n:]
		sg := segment{key: k}
		for j := uint64(0); j < nEntries; j++ {
			sid, n := binary.Uvarint(b)
			if n <= 0 || sid >= nSchemas {
				return bad("bad schema reference (%s)", k)
			}
			b = b[n:]
			eseq, n := binary.Uvarint(b)
			if n <= 0 {
				return bad("truncated entry seq (%s)", k)
			}
			b = b[n:]
			var tp *tuple.Tuple
			tp, b, err = tuple.DecodeTuple(b, schemas[sid])
			if err != nil {
				return bad("tuple in %s: %v", k, err)
			}
			sg.tps = append(sg.tps, tp)
			sg.seqs = append(sg.seqs, eseq)
		}
		rec.segs = append(rec.segs, sg)
	}
	if len(b) != 0 {
		return bad("%d trailing bytes", len(b))
	}
	return rec, nil
}

// composeChain applies a checkpoint-record chain in order and returns
// the composed state: the segment set at the last record's anchor. The
// returned keys are sorted (store, part, epoch ascending) — the same
// order Engine.WalkState produces and LoadTaskEpoch expects.
func composeChain(records []*ckptRecord) []segment {
	state := map[segKey]segment{}
	for _, rec := range records {
		for _, k := range rec.drops {
			delete(state, k)
		}
		for _, sg := range rec.segs {
			state[sg.key] = sg
		}
	}
	out := make([]segment, 0, len(state))
	for _, sg := range state {
		out = append(out, sg)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		if a.store != b.store {
			return a.store < b.store
		}
		if a.part != b.part {
			return a.part < b.part
		}
		return a.epoch < b.epoch
	})
	return out
}
