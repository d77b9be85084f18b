package runtime

// The one serialization of materialized state (DESIGN.md §11). Three
// writers share it: Engine.Checkpoint (a full snapshot), the recovery
// layer's checkpoint log (incremental records anchored in its WAL, whose
// records use the same frame), and the spill tier (one demoted epoch per
// frame):
//
//	frame    := uvarint(len(payload)) crc32c(payload)[4, LE] payload
//	table    := nSchemas(uvarint) schema*                — tuple codec
//	entry    := schemaID(uvarint) seq(uvarint) tuple     — tuple codec
//	key      := len(store)(uvarint) store part(uvarint) epoch(varint)
//	record   := kind(1)=2 anchor(uvarint) seq(uvarint) watermark(varint)
//	            nPins(uvarint)  [len(store) store par(uvarint)
//	                             len(rel) rel len(attr) attr
//	                             nSplit(uvarint) split(uvarint)*]*
//	            table
//	            nDrops(uvarint) key*
//	            nSegs(uvarint)  [key n(uvarint) entry*]*
//	spill    := epoch(varint) n(uvarint) table entry*
//
// A snapshot is one framed record with anchor 0 and no drops. The pin
// table snapshots the engine's pin-at-first-sight routing decisions
// (pins.go): split keys are otherwise derived from the caller's
// estimates at Install time, so an engine restored under different
// estimates would route differently than the state it loads.
//
// Every decoder here reads untrusted bytes: any malformed input is a
// wrapped ErrCorruptSnapshot, never a panic, and no count larger than
// the bytes left to back it ever sizes an allocation.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"clash/internal/topology"
	"clash/internal/tuple"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame wraps payload in a length+CRC frame and appends it to buf.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// cutFrame splits the frame at the head of b into its payload and the
// bytes after it; ok is false when b does not start with a whole frame
// whose CRC holds. No writer frames an empty payload, so a zero length
// is not a frame either: it is where a log file extended ahead of its
// data turns into zero fill (the CRC of nothing is 0, so fill would
// otherwise read as a run of valid empty frames).
func cutFrame(b []byte) (payload, rest []byte, ok bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l == 0 {
		return nil, nil, false
	}
	b = b[n:]
	if len(b) < 4 || uint64(len(b)-4) < l {
		return nil, nil, false
	}
	payload = b[4 : 4+int(l)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b) {
		return nil, nil, false
	}
	return payload, b[4+int(l):], true
}

// wholeFrame returns the payload of b, which must be exactly one frame
// with nothing after it — a snapshot or a spill segment.
func wholeFrame(b []byte) ([]byte, error) {
	payload, rest, ok := cutFrame(b)
	if !ok {
		return nil, corruptSnapshot("no whole frame in %d bytes (torn, or CRC mismatch)", len(b))
	}
	if len(rest) != 0 {
		return nil, corruptSnapshot("%d trailing bytes after the frame", len(rest))
	}
	return payload, nil
}

// Frame is one decoded frame of a log plus the log offset just past it.
type Frame struct {
	Payload []byte
	End     int64
}

// ScanFrames decodes the longest valid frame prefix of a log. It returns
// the frames and the byte length of that prefix; everything past it is
// a torn tail (incomplete length, short payload, or CRC mismatch) or
// zero fill, which the caller truncates away.
func ScanFrames(b []byte) (frames []Frame, valid int64) {
	for {
		payload, rest, ok := cutFrame(b[valid:])
		if !ok {
			return frames, valid
		}
		valid = int64(len(b) - len(rest))
		frames = append(frames, Frame{Payload: payload, End: valid})
	}
}

// schemaTable numbers the schemas of the tuples a payload carries,
// deduplicated by signature (joined tuples of one shape share a schema
// even across pointers). The tuples of one segment share one *Schema, so
// the pointer seen last answers nearly every lookup without rendering a
// signature per tuple. A table a StateEncoder keeps also keeps every
// schema's rendered signature (sigs), so a record in steady state
// renders none.
type schemaTable struct {
	ids    map[string]int
	list   []*tuple.Schema
	last   *tuple.Schema
	lastID int
	sigs   map[*tuple.Schema]string
}

// maxSigs bounds a StateEncoder's signature cache: past it (schemas of
// many re-optimizations), the cache starts over.
const maxSigs = 4096

func (st *schemaTable) sig(s *tuple.Schema) string {
	if st.sigs == nil {
		return s.String()
	}
	sig, ok := st.sigs[s]
	if !ok {
		if len(st.sigs) >= maxSigs {
			clear(st.sigs)
		}
		sig = s.String()
		st.sigs[s] = sig
	}
	return sig
}

// reset empties the table for the next record, keeping its map, its
// list's array and its signature cache.
func (st *schemaTable) reset() {
	clear(st.ids)
	clear(st.list)
	st.list, st.last = st.list[:0], nil
}

func (st *schemaTable) id(s *tuple.Schema) int {
	if s == st.last {
		return st.lastID
	}
	sig := st.sig(s)
	id, ok := st.ids[sig]
	if !ok {
		if st.ids == nil {
			st.ids = map[string]int{}
		}
		id = len(st.list)
		st.ids[sig] = id
		st.list = append(st.list, s)
	}
	st.last, st.lastID = s, id
	return id
}

// add numbers the schemas of the segment's rows, in row order.
func (st *schemaTable) add(sg *Segment) {
	if s := sg.cols; s != nil {
		for _, o := range s.sch[:sg.Len()] {
			st.id(s.schemas[o])
		}
		return
	}
	for _, tp := range sg.Tuples {
		st.id(tp.Schema)
	}
}

func (st *schemaTable) appendTo(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(st.list)))
	for _, s := range st.list {
		buf = tuple.AppendSchema(buf, s)
	}
	return buf
}

// appendEntries encodes the segment's rows with their sequence numbers
// in storage order; every schema must already be in the table. A
// segment read off columns is encoded straight from its cells, value by
// value in the tuple codec's grammar — the bytes AppendTuple writes for
// the row's tuple, without building it.
func appendEntries(buf []byte, st *schemaTable, sg *Segment) []byte {
	s := sg.cols
	for i, seq := range sg.Seqs {
		if s == nil {
			tp := sg.Tuples[i]
			buf = binary.AppendUvarint(buf, uint64(st.id(tp.Schema)))
			buf = binary.AppendUvarint(buf, seq)
			buf = tuple.AppendTuple(buf, tp)
			continue
		}
		sc := s.schemas[s.sch[i]]
		buf = binary.AppendUvarint(buf, uint64(st.id(sc)))
		buf = binary.AppendUvarint(buf, seq)
		buf = binary.AppendVarint(buf, s.ts[i])
		for p := range sc.Len() {
			buf = tuple.AppendValue(buf, s.cols[p].value(i))
		}
	}
	return buf
}

// SegKey identifies one state segment: a task's epoch.
type SegKey struct {
	Store topology.StoreID
	Part  int
	Epoch int64
}

func (k SegKey) String() string { return fmt.Sprintf("%s/%d@%d", k.Store, k.Part, k.Epoch) }

// Compare orders keys by store, partition, then epoch — the walk order.
func (k SegKey) Compare(o SegKey) int {
	return cmp.Or(cmp.Compare(k.Store, o.Store), cmp.Compare(k.Part, o.Part), cmp.Compare(k.Epoch, o.Epoch))
}

// Segment is one task's epoch of state: its rows and their arrival
// sequence numbers, in backend storage order. A decoded segment, or one
// walked off the container oracle, holds its rows as Tuples. One walked
// off the columnar store reads them in place from the epoch's columns —
// Tuples is nil, and the view is valid until the engine next changes
// state.
type Segment struct {
	Key    SegKey
	Tuples []*tuple.Tuple
	Seqs   []uint64
	cols   *colSegment
}

// Len is the segment's row count.
func (s *Segment) Len() int { return len(s.Seqs) }

// TS is row i's event time.
func (s *Segment) TS(i int) tuple.Time {
	if s.cols != nil {
		return tuple.Time(s.cols.ts[i])
	}
	return s.Tuples[i].TS
}

// StateRecord is the one state record: the engine's progress, its pin
// table, and a set of segments. A snapshot holds every segment with
// Anchor 0 and no drops; a checkpoint-log record holds the segments that
// changed since the previous record, tombstones for those that vanished,
// and the WAL position the state reflects.
type StateRecord struct {
	Anchor    int64 // WAL byte position the state reflects (0: none)
	Seq       uint64
	Watermark int64
	Pins      []StorePin
	Drops     []SegKey
	Segs      []Segment
}

const stateRecordKind byte = 2

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendSegKey(buf []byte, k SegKey) []byte {
	buf = appendString(buf, string(k.Store))
	buf = binary.AppendUvarint(buf, uint64(k.Part))
	return binary.AppendVarint(buf, k.Epoch)
}

// AppendStateRecord encodes one record payload (unframed). Segments and
// drops are written in the order given: callers pass walk order.
func AppendStateRecord(buf []byte, r *StateRecord) []byte {
	var tab schemaTable
	return appendStateRecord(buf, r, &tab)
}

// StateEncoder encodes state records like AppendStateRecord, keeping
// its schema table from one record to the next: a writer of many
// records (the checkpoint log) allocates nothing per record in steady
// state beyond what its buffer's growth costs. The bytes are
// AppendStateRecord's. The zero value is ready to use.
type StateEncoder struct {
	tab schemaTable
}

// Append encodes one record payload (unframed) onto buf.
func (enc *StateEncoder) Append(buf []byte, r *StateRecord) []byte {
	enc.tab.reset()
	if enc.tab.sigs == nil {
		enc.tab.sigs = map[*tuple.Schema]string{}
	}
	return appendStateRecord(buf, r, &enc.tab)
}

func appendStateRecord(buf []byte, r *StateRecord, tab *schemaTable) []byte {
	buf = append(buf, stateRecordKind)
	buf = binary.AppendUvarint(buf, uint64(r.Anchor))
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendVarint(buf, r.Watermark)
	buf = binary.AppendUvarint(buf, uint64(len(r.Pins)))
	for _, p := range r.Pins {
		buf = appendString(buf, string(p.Store))
		buf = binary.AppendUvarint(buf, uint64(p.Par))
		buf = appendString(buf, p.Part.Rel)
		buf = appendString(buf, p.Part.Name)
		buf = binary.AppendUvarint(buf, uint64(len(p.Split)))
		for _, h := range p.Split {
			buf = binary.AppendUvarint(buf, h)
		}
	}
	for i := range r.Segs {
		tab.add(&r.Segs[i])
	}
	buf = tab.appendTo(buf)
	buf = binary.AppendUvarint(buf, uint64(len(r.Drops)))
	for _, k := range r.Drops {
		buf = appendSegKey(buf, k)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Segs)))
	for i := range r.Segs {
		sg := &r.Segs[i]
		buf = appendSegKey(buf, sg.Key)
		buf = binary.AppendUvarint(buf, uint64(sg.Len()))
		buf = appendEntries(buf, tab, sg)
	}
	return buf
}

// DecodeStateRecord decodes one record payload.
func DecodeStateRecord(b []byte) (*StateRecord, error) {
	if len(b) == 0 || b[0] != stateRecordKind {
		return nil, corruptSnapshot("bad record kind")
	}
	d := &decoder{b: b[1:]}
	rec := &StateRecord{}
	rec.Anchor = int64(d.uvarint("anchor position"))
	rec.Seq = d.uvarint("anchor seq")
	rec.Watermark = d.varint("watermark")
	for i, n := 0, d.count("pin count"); i < n && d.err == nil; i++ {
		p := StorePin{Store: topology.StoreID(d.str("pin store"))}
		p.Par = int(d.uvarint("pin parallelism"))
		p.Part.Rel = d.str("pin partition relation")
		p.Part.Name = d.str("pin partition attribute")
		for j, m := 0, d.count("split-key count"); j < m && d.err == nil; j++ {
			p.Split = append(p.Split, d.uvarint("split key"))
		}
		rec.Pins = append(rec.Pins, p)
	}
	schemas := d.schemas()
	for i, n := 0, d.count("drop count"); i < n && d.err == nil; i++ {
		rec.Drops = append(rec.Drops, d.segKey())
	}
	for i, n := 0, d.count("segment count"); i < n && d.err == nil; i++ {
		sg := Segment{Key: d.segKey()}
		m := d.count("entry count")
		sg.Tuples, sg.Seqs = make([]*tuple.Tuple, 0, m), make([]uint64, 0, m)
		d.entries(schemas, m, func(tp *tuple.Tuple, seq uint64) {
			sg.Tuples = append(sg.Tuples, tp)
			sg.Seqs = append(sg.Seqs, seq)
		})
		rec.Segs = append(rec.Segs, sg)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return rec, nil
}

// appendSpill encodes one epoch for the spill tier, straight from its
// columns: the epoch, its row count, a schema table, and the entries in
// storage order — the order every backend's segment walk and probe
// chains are defined over, so a demote/promote round trip is
// byte-invisible to probes, checkpoints, and results.
func appendSpill(buf []byte, s *colSegment) []byte {
	sg := s.view()
	var tab schemaTable
	tab.add(&sg)
	buf = binary.AppendVarint(buf, s.epoch)
	buf = binary.AppendUvarint(buf, uint64(sg.Len()))
	buf = tab.appendTo(buf)
	return appendEntries(buf, &tab, &sg)
}

// decodeSpill rebuilds a hot segment from a spill payload. Rows are
// re-added in storage order, so payload accounting, min/max event
// times, and (lazily rebuilt) index chains come out exactly as they were
// before demotion.
func decodeSpill(b []byte) (*colSegment, error) {
	d := &decoder{b: b}
	s := newColSegment(d.varint("spill epoch"))
	n := d.count("spill entry count")
	d.entries(d.schemas(), n, s.add)
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// decoder reads the grammar above from untrusted bytes. The first
// failure sticks: later reads return zero values, every loop stops at
// its next check of err, and done reports it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptSnapshot(format, args...)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated %s", what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated %s", what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a length prefix. Every counted item costs at least one
// byte, so a count beyond the remaining input is corrupt — and never
// reaches an allocation.
func (d *decoder) count(what string) int {
	v := d.uvarint(what)
	if v > uint64(len(d.b)) {
		d.fail("bad %s %d (%d bytes left)", what, v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *decoder) str(what string) string {
	l := d.count(what)
	s := string(d.b[:l])
	d.b = d.b[l:]
	return s
}

func (d *decoder) segKey() SegKey {
	store := d.str("store id")
	part := d.uvarint("partition")
	return SegKey{Store: topology.StoreID(store), Part: int(part), Epoch: d.varint("epoch")}
}

// maxSchemas bounds a decoded schema table at what a columnar segment's
// 16-bit row ordinals can number, so decoded state loaded into one can
// never overflow them.
const maxSchemas = 1 << 16

func (d *decoder) schemas() []*tuple.Schema {
	n := d.count("schema count")
	if n > maxSchemas {
		d.fail("schema count %d beyond %d", n, maxSchemas)
		return nil
	}
	out := make([]*tuple.Schema, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		s, rest, err := tuple.DecodeSchema(d.b)
		if err != nil {
			d.fail("schema %d: %v", i, err)
			break
		}
		d.b = rest
		out = append(out, s)
	}
	return out
}

// entries decodes n entries, handing each to add in storage order.
func (d *decoder) entries(schemas []*tuple.Schema, n int, add func(*tuple.Tuple, uint64)) {
	for i := 0; i < n && d.err == nil; i++ {
		sid := d.uvarint("entry schema")
		seq := d.uvarint("entry sequence")
		if d.err != nil {
			return
		}
		if sid >= uint64(len(schemas)) {
			d.fail("entry %d: schema reference %d of %d", i, sid, len(schemas))
			return
		}
		tp, rest, err := tuple.DecodeTuple(d.b, schemas[sid])
		if err != nil {
			d.fail("entry %d: %v", i, err)
			return
		}
		d.b = rest
		add(tp, seq)
	}
}

func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}
