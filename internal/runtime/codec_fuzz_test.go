package runtime

// Native fuzz target for the one decoder of materialized state: the
// frame and the state record that snapshots, the checkpoint log and (by
// its schema table and entry codec) the spill tier all share. Four
// properties on arbitrary bytes, read both as a record payload and as a
// frame around one:
//
//  1. Decoding never panics and fails only with a wrapped
//     ErrCorruptSnapshot.
//  2. Decoding never over-allocates: what it allocates is bounded by a
//     constant multiple of the input, however large a count claims to be.
//  3. Decode∘encode is byte-stable: a record that decodes re-encodes to
//     bytes that decode and re-encode to themselves.
//  4. Columns encode like the tuples they hold: the rows of a spill
//     payload that decodes, and of every segment of a record that
//     decodes, read a second time as tuples through the tuple codec
//     (tupleEntries), encode through the tuple codec to exactly the bytes
//     appendSpill writes straight from the columns — both the columns the
//     decoder filled and the same tuples loaded into a columnar segment.
//
// The seeds (here, and as files in testdata/fuzz/FuzzStateRecord) are a
// valid framed record with pins, a drop and two schemas, a valid record
// over two schemas that print alike, then the same kind of record with
// an inflated schema count, an inflated entry count, a schema reference
// out of range, and a torn frame, and a framed spill segment over two
// schemas whose cells hold every kind. CI runs a 30 s fuzz smoke on
// every push.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"

	"clash/internal/query"
	"clash/internal/tuple"
)

// fuzzSeedRecord is the valid seed: two pins (one with split keys), one
// drop, and two segments over two schemas.
func fuzzSeedRecord() *StateRecord {
	r, rs := tuple.NewSchema("R.a", "R.τ"), tuple.NewSchema("R.a", "S.b", "R.τ", "S.τ")
	sr, srs := Segment{Key: SegKey{Store: "st-R", Part: 0, Epoch: 2}}, Segment{Key: SegKey{Store: "st-RS", Part: 0, Epoch: 2}}
	sr.Append(tuple.New(r, 5, tuple.IntValue(1), tuple.IntValue(5)), 10)
	sr.Append(tuple.New(r, 6, tuple.IntValue(2), tuple.IntValue(6)), 11)
	srs.Append(tuple.New(rs, 6, tuple.IntValue(1), tuple.StringValue("x"), tuple.IntValue(5), tuple.IntValue(6)), 12)
	return &StateRecord{
		Anchor: 4096, Seq: 12, Watermark: -3,
		Pins: []StorePin{
			{Store: "st-R", Par: 2, Part: query.Attr{Rel: "R", Name: "a"}, Split: []uint64{7, 1 << 40}},
			{Store: "st-RS", Par: 1, Part: query.Attr{Rel: "S", Name: "b"}},
		},
		Drops: []SegKey{{Store: "st-R", Part: 1, Epoch: 0}},
		Segs:  []Segment{sr, srs},
	}
}

// lookalikeRecord is a valid record whose one segment holds rows of two
// schemas that print alike, ("x, y") and ("x", "y"): the schema table
// must number them apart.
func lookalikeRecord() *StateRecord {
	one, two := tuple.NewSchema("x, y"), tuple.NewSchema("x", "y")
	sg := Segment{Key: SegKey{Store: "st", Part: 0, Epoch: 1}}
	sg.Append(tuple.New(one, 1, tuple.IntValue(1)), 1)
	sg.Append(tuple.New(two, 2, tuple.IntValue(2), tuple.StringValue("b")), 2)
	sg.Append(tuple.New(one, 3, tuple.StringValue("c")), 3)
	return &StateRecord{Seq: 3, Segs: []Segment{sg}}
}

// fuzzSeedSpill is a spill segment whose cells cover the kinds and the
// bit patterns a column must keep apart: Null against Int 0, both Bools,
// −0.0 against +0.0, a NaN payload, empty and non-empty strings, a
// String landing where only other kinds were, and two schemas.
func fuzzSeedSpill() *colSegment {
	r, rs := tuple.NewSchema("R.a", "R.τ"), tuple.NewSchema("R.a", "S.b", "R.τ", "S.τ")
	nan := tuple.FloatValue(math.Float64frombits(0x7ff8_0000_0000_0abc))
	s := newColSegment(3)
	for i, vals := range [][]tuple.Value{
		{tuple.IntValue(0)},
		{tuple.NullValue()},
		{tuple.BoolValue(false), tuple.BoolValue(true)},
		{tuple.FloatValue(math.Copysign(0, -1)), tuple.FloatValue(0)},
		{nan},
		{tuple.StringValue(""), tuple.StringValue("x")},
	} {
		ts := tuple.IntValue(int64(i + 1))
		if len(vals) == 1 {
			s.add(tuple.New(r, tuple.Time(i+1), vals[0], ts), uint64(i+1))
		} else {
			s.add(tuple.New(rs, tuple.Time(i+1), vals[0], vals[1], ts, ts), uint64(i+1))
		}
	}
	return s
}

// fuzzSeeds returns the named seed inputs, each a frame.
func fuzzSeeds() map[string][]byte {
	valid := AppendStateRecord(nil, fuzzSeedRecord())
	header := func() []byte { // kind, anchor 0, seq 1, watermark 0, no pins
		return []byte{stateRecordKind, 0, 1, 0, 0}
	}
	oneSchema := func(b []byte) []byte {
		b = binary.AppendUvarint(b, 1)
		return tuple.AppendSchema(b, tuple.NewSchema("R.a"))
	}
	segHead := func(b []byte, entries uint64) []byte { // no drops, one segment
		b = append(b, 0, 1)
		b = appendSegKey(b, SegKey{Store: "s", Part: 0, Epoch: 1})
		return binary.AppendUvarint(b, entries)
	}
	inflatedSchemas := binary.AppendUvarint(header(), 1<<40)
	inflatedEntries := segHead(oneSchema(header()), 1<<40)
	badRef := segHead(oneSchema(header()), 1)
	badRef = append(badRef, 5, 1) // schema 5 of 1, seq 1
	badRef = tuple.AppendTuple(badRef, tuple.New(tuple.NewSchema("R.a"), 1, tuple.IntValue(1)))
	framed := AppendFrame(nil, valid)
	return map[string][]byte{
		"seed_valid":            framed,
		"seed_schema_lookalike": AppendFrame(nil, AppendStateRecord(nil, lookalikeRecord())),
		"seed_inflated_schemas": AppendFrame(nil, inflatedSchemas),
		"seed_inflated_entries": AppendFrame(nil, inflatedEntries),
		"seed_schema_ref":       AppendFrame(nil, badRef),
		"seed_torn_frame":       framed[:len(framed)/2],
		"seed_spill":            AppendFrame(nil, appendSpill(nil, fuzzSeedSpill())),
	}
}

func FuzzStateRecord(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStateRecord(t, data)
		checkSpill(t, data)
		if payload, err := wholeFrame(data); err == nil {
			checkStateRecord(t, payload)
			checkSpill(t, payload)
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("frame error %v does not wrap ErrCorruptSnapshot", err)
		}
		if frames, valid := ScanFrames(data); valid > int64(len(data)) || (len(frames) > 0 && frames[len(frames)-1].End != valid) {
			t.Fatalf("scan of %d bytes: %d frames, valid prefix %d", len(data), len(frames), valid)
		}
	})
}

// checkStateRecord asserts the three properties on one payload.
func checkStateRecord(t *testing.T, payload []byte) {
	t.Helper()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	rec, err := DecodeStateRecord(payload)
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+512*uint64(len(payload)) {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(payload), grew)
	}
	if err != nil {
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("decode error %v does not wrap ErrCorruptSnapshot", err)
		}
		return
	}
	enc := AppendStateRecord(nil, rec)
	rec2, err := DecodeStateRecord(enc)
	if err != nil {
		t.Fatalf("re-encoded record does not decode: %v", err)
	}
	if !bytes.Equal(AppendStateRecord(nil, rec2), enc) {
		t.Fatal("decode∘encode is not byte-stable")
	}
	rows, err := recordTuples(payload)
	if err != nil {
		t.Fatalf("DecodeStateRecord accepted what the tuple codec's reading rejects: %v", err)
	}
	if len(rows) != len(rec.Segs) {
		t.Fatalf("%d decoded segments, %d read as tuples", len(rec.Segs), len(rows))
	}
	for i := range rec.Segs {
		sg := &rec.Segs[i]
		if err := columnsEncodeLikeTuples(sg.Key.Epoch, rows[i].tps, rows[i].seqs, sg.cols); err != nil {
			t.Fatalf("segment %s: %v", sg.Key, err)
		}
	}
}

// tupleEntries reads n entries of the entry grammar as tuples through
// the tuple codec (DecodeTuple) — the reading independent of the
// decoder's columns that property 4 compares them against.
func tupleEntries(d *decoder, schemas []*tuple.Schema, n int) (tps []*tuple.Tuple, seqs []uint64) {
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
		tps, seqs = append(tps, tp), append(seqs, seq)
	}
	return tps, seqs
}

type tupleRows struct {
	tps  []*tuple.Tuple
	seqs []uint64
}

// recordTuples reads a record payload's segments as tuples: the record
// grammar walked past its header, pins and drops, every segment's
// entries through tupleEntries.
func recordTuples(payload []byte) ([]tupleRows, error) {
	d := &decoder{b: payload[1:]}
	d.uvarint("anchor position")
	d.uvarint("anchor seq")
	d.varint("watermark")
	for i, n := 0, d.count("pin count"); i < n && d.err == nil; i++ {
		d.str("pin store")
		d.uvarint("pin parallelism")
		d.str("pin partition relation")
		d.str("pin partition attribute")
		for j, m := 0, d.count("split-key count"); j < m && d.err == nil; j++ {
			d.uvarint("split key")
		}
	}
	schemas := d.schemas()
	for i, n := 0, d.count("drop count"); i < n && d.err == nil; i++ {
		d.segKey()
	}
	var out []tupleRows
	for i, n := 0, d.count("segment count"); i < n && d.err == nil; i++ {
		d.segKey()
		tps, seqs := tupleEntries(d, schemas, d.count("entry count"))
		out = append(out, tupleRows{tps, seqs})
	}
	return out, d.done()
}

// checkSpill asserts property 4 on one payload read as a spill segment:
// the rows it decodes to, loaded into a columnar segment, re-encode
// through appendSpill to the bytes their tuples encode to.
func checkSpill(t *testing.T, payload []byte) {
	t.Helper()
	s, err := decodeSpill(payload)
	if err != nil {
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("spill decode error %v does not wrap ErrCorruptSnapshot", err)
		}
		return
	}
	// The same rows again, as tuples, through the tuple codec.
	d := &decoder{b: payload}
	epoch := d.varint("spill epoch")
	n := d.count("spill entry count")
	tps, seqs := tupleEntries(d, d.schemas(), n)
	if err := d.done(); err != nil {
		t.Fatalf("decodeSpill accepted what the tuple codec's reading rejects: %v", err)
	}
	if err := columnsEncodeLikeTuples(epoch, tps, seqs, s); err != nil {
		t.Fatal(err)
	}
}

// tupleSpill encodes the rows in the spill grammar through the tuple
// codec: a schema table numbered in row order, then per row its schema
// id, its sequence number and AppendTuple's bytes.
func tupleSpill(epoch int64, tps []*tuple.Tuple, seqs []uint64) []byte {
	var tab schemaTable
	for _, tp := range tps {
		tab.id(tp.Schema)
	}
	b := binary.AppendVarint(nil, epoch)
	b = binary.AppendUvarint(b, uint64(len(tps)))
	b = tab.appendTo(b)
	for i, tp := range tps {
		b = binary.AppendUvarint(b, uint64(tab.id(tp.Schema)))
		b = binary.AppendUvarint(b, seqs[i])
		b = tuple.AppendTuple(b, tp)
	}
	return b
}

// columnsEncodeLikeTuples compares appendSpill's bytes — of the decoded
// columns, and of the rows loaded into a fresh columnar segment of the
// epoch — with the tuple codec's encoding of the same rows in the spill
// grammar; the latter must decode back to a segment that re-encodes to
// itself.
func columnsEncodeLikeTuples(epoch int64, tps []*tuple.Tuple, seqs []uint64, decoded *colSegment) error {
	s := newColSegment(epoch)
	for i, tp := range tps {
		s.add(tp, seqs[i])
	}
	want := tupleSpill(epoch, tps, seqs)
	if got := appendSpill(nil, s); !bytes.Equal(got, want) {
		return fmt.Errorf("columns encode to %x, their tuples to %x", got, want)
	}
	if got := appendSpill(nil, decoded); !bytes.Equal(got, want) {
		return fmt.Errorf("decoded columns encode to %x, the tuples read from the same bytes to %x", got, want)
	}
	back, err := decodeSpill(want)
	if err != nil {
		return fmt.Errorf("the tuples' spill encoding does not decode: %v", err)
	}
	if got := appendSpill(nil, back); !bytes.Equal(got, want) {
		return fmt.Errorf("spill decode∘encode is not byte-stable: %x, then %x", want, got)
	}
	return nil
}

// TestFuzzSeedsDecodeAsNamed: the valid seeds round-trip exactly and
// each malformed seed is rejected for the reason its name gives — the
// corpus exercises what it says it does.
func TestFuzzSeedsDecodeAsNamed(t *testing.T) {
	why := map[string]string{
		"seed_inflated_schemas": "bad schema count",
		"seed_inflated_entries": "bad entry count",
		"seed_schema_ref":       "schema reference 5 of 1",
		"seed_torn_frame":       "no whole frame",
	}
	for name, seed := range fuzzSeeds() {
		payload, err := wholeFrame(seed)
		if name == "seed_spill" {
			s, err := decodeSpill(payload)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(appendSpill(nil, s), payload) {
				t.Errorf("%s: re-encoding differs from the original", name)
			}
			continue
		}
		var rec *StateRecord
		if err == nil {
			rec, err = DecodeStateRecord(payload)
		}
		if name == "seed_valid" || name == "seed_schema_lookalike" {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(AppendStateRecord(nil, rec), payload) {
				t.Errorf("%s: re-encoding differs from the original", name)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), why[name]) {
			t.Errorf("%s: error %v, want ErrCorruptSnapshot for %q", name, err, why[name])
		}
	}
}

// TestSchemaTableKeepsLookalikesApart encodes rows of two schemas that
// print alike, ("x, y") and ("x", "y"), in one state record (through
// AppendStateRecord and through a StateEncoder, whose table caches the
// signatures) and in one spill payload: each must decode, re-encode to
// the same bytes, and give every row back under its own attribute names.
func TestSchemaTableKeepsLookalikesApart(t *testing.T) {
	rec := lookalikeRecord()
	want := rec.Segs[0]
	check := func(name string, got *Segment) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
		}
		for i := range want.Len() {
			g, w := got.Tuple(i), want.Tuple(i)
			if !slices.Equal(g.Schema.Names(), w.Schema.Names()) || !slices.Equal(g.Values, w.Values) {
				t.Errorf("%s: row %d decodes as %v %v, want %v %v", name, i, g.Schema.Names(), g, w.Schema.Names(), w)
			}
		}
	}
	var enc StateEncoder
	for name, payload := range map[string][]byte{
		"AppendStateRecord": AppendStateRecord(nil, rec),
		"StateEncoder":      enc.Append(nil, rec),
	} {
		got, err := DecodeStateRecord(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := AppendStateRecord(nil, got); !bytes.Equal(again, payload) {
			t.Errorf("%s: re-encoding differs from the original", name)
		}
		check(name, &got.Segs[0])
	}
	spill := appendSpill(nil, want.cols)
	s, err := decodeSpill(spill)
	if err != nil {
		t.Fatalf("spill: %v", err)
	}
	if again := appendSpill(nil, s); !bytes.Equal(again, spill) {
		t.Error("spill: re-encoding differs from the original")
	}
	sg := s.view()
	check("spill", &sg)
}
