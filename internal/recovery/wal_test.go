package recovery

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"clash/internal/query"
	"clash/internal/runtime"
	"clash/internal/topology"
	"clash/internal/tuple"
)

func ingestFrame(t *testing.T, rel string, ts tuple.Time, seq uint64, vals ...tuple.Value) []byte {
	t.Helper()
	return runtime.AppendFrame(nil, appendIngestRecord(nil, rel, ts, vals, seq))
}

// TestWALRecordRoundTrip: every record kind encodes and decodes to
// itself through the frame layer.
func TestWALRecordRoundTrip(t *testing.T) {
	var log []byte
	log = append(log, ingestFrame(t, "R", 7, 1, tuple.IntValue(42), tuple.StringValue("x"))...)
	log = append(log, runtime.AppendFrame(nil, appendPruneRecord(nil, -3))...)
	log = append(log, runtime.AppendFrame(nil, appendEvictRecord(nil, "store-S", 2, 5, 17, 9))...)

	frames, valid := runtime.ScanFrames(log)
	if valid != int64(len(log)) {
		t.Fatalf("valid prefix %d, want %d", valid, len(log))
	}
	if len(frames) != 3 {
		t.Fatalf("%d frames, want 3", len(frames))
	}
	recs := make([]walRecord, len(frames))
	for i, fr := range frames {
		rec, err := decodeWALRecord(fr.Payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		recs[i] = rec
	}
	if recs[0].kind != walIngest || recs[0].rel != "R" || recs[0].ts != 7 || recs[0].seq != 1 {
		t.Errorf("ingest decoded as %+v", recs[0])
	}
	if len(recs[0].vals) != 2 || recs[0].vals[0] != tuple.IntValue(42) || recs[0].vals[1] != tuple.StringValue("x") {
		t.Errorf("ingest values decoded as %v", recs[0].vals)
	}
	if recs[1].kind != walPrune || recs[1].cut != -3 {
		t.Errorf("prune decoded as %+v", recs[1])
	}
	if recs[2].kind != walEvict || recs[2].store != "store-S" || recs[2].part != 2 ||
		recs[2].epoch != 5 || recs[2].tuples != 17 || recs[2].seq != 9 {
		t.Errorf("evict decoded as %+v", recs[2])
	}
	if frames[2].End != int64(len(log)) {
		t.Errorf("last frame end %d, want %d", frames[2].End, len(log))
	}
}

// TestScanFramesTornTail: truncating a valid log at EVERY byte offset
// must yield the longest record prefix that fits — never a panic, never
// a partial record, never a lost complete record.
func TestScanFramesTornTail(t *testing.T) {
	var log []byte
	var ends []int64
	for seq := uint64(1); seq <= 8; seq++ {
		log = append(log, ingestFrame(t, "R", tuple.Time(seq), seq, tuple.IntValue(int64(seq)))...)
		ends = append(ends, int64(len(log)))
	}
	for cut := 0; cut <= len(log); cut++ {
		frames, valid := runtime.ScanFrames(log[:cut])
		wantRecs := 0
		for _, e := range ends {
			if e <= int64(cut) {
				wantRecs++
			}
		}
		if len(frames) != wantRecs {
			t.Fatalf("cut %d: %d frames, want %d", cut, len(frames), wantRecs)
		}
		if wantRecs > 0 && valid != ends[wantRecs-1] {
			t.Fatalf("cut %d: valid prefix %d, want %d", cut, valid, ends[wantRecs-1])
		}
	}
}

// TestScanFramesStopsAtCorruption: a bit flip inside a frame stops the
// scan at the preceding boundary (the corrupted frame and everything
// after it are treated as torn).
func TestScanFramesStopsAtCorruption(t *testing.T) {
	a := ingestFrame(t, "R", 1, 1, tuple.IntValue(1))
	b := ingestFrame(t, "S", 2, 2, tuple.IntValue(2))
	log := append(append([]byte{}, a...), b...)
	log[len(a)+len(b)/2] ^= 0x40

	frames, valid := runtime.ScanFrames(log)
	if len(frames) != 1 || valid != int64(len(a)) {
		t.Fatalf("got %d frames / %d valid bytes, want 1 / %d", len(frames), valid, len(a))
	}
}

// TestScanFramesStopsAtZeroFill: a log followed by zero fill — what a
// mapped stream file holds past its last record — scans to exactly the
// log. Five zero bytes are an empty payload under a valid CRC, so fill
// would otherwise read as records.
func TestScanFramesStopsAtZeroFill(t *testing.T) {
	var log []byte
	for seq := uint64(1); seq <= 3; seq++ {
		log = append(log, ingestFrame(t, "R", tuple.Time(seq), seq, tuple.IntValue(int64(seq)))...)
	}
	for _, fill := range []int{1, 5, 4096} {
		b := append(append([]byte{}, log...), make([]byte, fill)...)
		frames, valid := runtime.ScanFrames(b)
		if len(frames) != 3 || valid != int64(len(log)) {
			t.Errorf("%d fill bytes: %d frames / %d valid bytes, want 3 / %d", fill, len(frames), valid, len(log))
		}
		if n := tornBytes(b, valid); n != 0 {
			t.Errorf("%d fill bytes counted as %d torn bytes", fill, n)
		}
	}
	torn := ingestFrame(t, "S", 9, 4, tuple.StringValue("tail"))
	b := append(append(append([]byte{}, log...), torn[:len(torn)-2]...), make([]byte, 64)...)
	if _, valid := runtime.ScanFrames(b); tornBytes(b, valid) != int64(len(torn)-2) {
		t.Errorf("torn record before fill counted as %d bytes, want %d", tornBytes(b, valid), len(torn)-2)
	}
}

// TestDecodeWALRecordRejectsTruncation: a CRC-valid but truncated
// payload is structural corruption, reported as wrapped ErrCorruptWAL
// for every truncation point — never a panic, never a silent success.
func TestDecodeWALRecordRejectsTruncation(t *testing.T) {
	payloads := [][]byte{
		appendIngestRecord(nil, "Rel", 12, []tuple.Value{tuple.IntValue(3), tuple.StringValue("abc")}, 4),
		appendPruneRecord(nil, 99),
		appendEvictRecord(nil, "store", 1, 2, 3, 4),
	}
	for pi, payload := range payloads {
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decodeWALRecord(payload[:cut]); err == nil {
				t.Errorf("payload %d truncated to %d bytes decoded successfully", pi, cut)
			} else if !errors.Is(err, ErrCorruptWAL) {
				t.Errorf("payload %d cut %d: error %v does not wrap ErrCorruptWAL", pi, cut, err)
			}
		}
		if _, err := decodeWALRecord(append(append([]byte{}, payload...), 0)); !errors.Is(err, ErrCorruptWAL) {
			t.Errorf("payload %d with trailing byte: %v", pi, err)
		}
	}
	if _, err := decodeWALRecord([]byte{99}); !errors.Is(err, ErrCorruptWAL) {
		t.Errorf("unknown kind: %v", err)
	}
}

// TestFrameEnds: exported boundary helper matches the scanner.
func TestFrameEnds(t *testing.T) {
	var log []byte
	var want []int64
	for seq := uint64(1); seq <= 3; seq++ {
		log = append(log, ingestFrame(t, "R", tuple.Time(seq), seq)...)
		want = append(want, int64(len(log)))
	}
	got := FrameEnds(append(log, 0xFF, 0xFF)) // torn garbage tail
	if len(got) != len(want) {
		t.Fatalf("%d boundaries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("boundary %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestCkptRecordRoundTrip: checkpoint records survive encode/decode
// with schema table, drops, and anchored positions intact.
func TestCkptRecordRoundTrip(t *testing.T) {
	s := tuple.NewSchema("a", "ts")
	tp1 := tuple.New(s, 5, tuple.IntValue(1), tuple.IntValue(5))
	tp2 := tuple.New(s, 6, tuple.IntValue(2), tuple.IntValue(6))
	segs := []runtime.Segment{{Key: runtime.SegKey{Store: "st", Part: 1, Epoch: 2}}}
	segs[0].Append(tp1, 10)
	segs[0].Append(tp2, 11)
	drops := []runtime.SegKey{{Store: "st", Part: 0, Epoch: 1}}
	pins := []runtime.StorePin{
		{Store: "st", Par: 2, Part: query.Attr{Rel: "R", Name: "a"}, Split: []uint64{7, 99}},
		{Store: "st2", Par: 1, Part: query.Attr{Rel: "S", Name: "b"}},
	}
	payload := runtime.AppendStateRecord(nil, &runtime.StateRecord{Anchor: 1234, Seq: 11, Watermark: 6, Pins: pins, Drops: drops, Segs: segs})

	rec, err := decodeCkptRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Anchor != 1234 || rec.Seq != 11 || rec.Watermark != 6 {
		t.Errorf("anchor decoded as pos=%d seq=%d wm=%d", rec.Anchor, rec.Seq, rec.Watermark)
	}
	if !reflect.DeepEqual(rec.Pins, pins) {
		t.Errorf("pins decoded as %+v, want %+v", rec.Pins, pins)
	}
	if len(rec.Drops) != 1 || rec.Drops[0] != drops[0] {
		t.Errorf("drops decoded as %v", rec.Drops)
	}
	if len(rec.Segs) != 1 || rec.Segs[0].Key != segs[0].Key || rec.Segs[0].Len() != 2 {
		t.Fatalf("segments decoded as %+v", rec.Segs)
	}
	if rec.Segs[0].Seqs[0] != 10 || rec.Segs[0].Seqs[1] != 11 {
		t.Errorf("entry seqs decoded as %v", rec.Segs[0].Seqs)
	}
	for i, tp := range []*tuple.Tuple{tp1, tp2} {
		if got := rec.Segs[0].Tuple(i); got.String() != tp.String() {
			t.Errorf("row %d decoded as %v, want %v", i, got, tp)
		}
	}
	if fingerprint(&rec.Segs[0]) != fingerprint(&segs[0]) {
		t.Error("fingerprint changed across round trip")
	}

	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeCkptRecord(payload[:cut]); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("cut %d: error %v does not wrap ErrCorruptCheckpoint", cut, err)
		}
	}
}

// TestComposeChain: later records override earlier segments, drops
// remove them, and the composed set comes out sorted.
func TestComposeChain(t *testing.T) {
	s := tuple.NewSchema("a", "ts")
	mk := func(store string, part int, epoch int64, seqs ...uint64) runtime.Segment {
		sg := runtime.Segment{Key: runtime.SegKey{Store: topology.StoreID(store), Part: part, Epoch: epoch}}
		for _, q := range seqs {
			sg.Append(tuple.New(s, tuple.Time(q), tuple.IntValue(int64(q)), tuple.IntValue(int64(q))), q)
		}
		return sg
	}
	recs := []*runtime.StateRecord{
		{Segs: []runtime.Segment{mk("b", 0, 0, 1), mk("a", 1, 0, 2)}},
		{Segs: []runtime.Segment{mk("b", 0, 0, 1, 3), mk("a", 0, 5, 4)}},
		{Drops: []runtime.SegKey{{Store: "a", Part: 1, Epoch: 0}}},
	}
	got := composeChain(recs)
	if len(got) != 2 {
		t.Fatalf("composed %d segments, want 2", len(got))
	}
	if got[0].Key != (runtime.SegKey{Store: "a", Part: 0, Epoch: 5}) {
		t.Errorf("first composed key %v (not sorted?)", got[0].Key)
	}
	if got[1].Key != (runtime.SegKey{Store: "b", Part: 0, Epoch: 0}) || got[1].Len() != 2 {
		t.Errorf("override lost: %v with %d tuples", got[1].Key, got[1].Len())
	}
}

// TestNewManagerRejectsNonEmptyStorage: starting a fresh journal over
// existing history must fail (silent orphaning), pointing at Recover.
func TestNewManagerRejectsNonEmptyStorage(t *testing.T) {
	st := NewMemStorage()
	if _, err := NewManager(st, Config{}); err != nil {
		t.Fatalf("empty storage rejected: %v", err)
	}
	if err := st.Append(StreamWAL, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(st, Config{}); !errors.Is(err, ErrStorageNotEmpty) {
		t.Errorf("non-empty WAL: error %v does not wrap ErrStorageNotEmpty", err)
	}
}

// TestDirStorageRoundTrip: the file-backed storage appends, loads,
// truncates (incl. mid-frame), and survives reopening.
func TestDirStorageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(StreamWAL, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(StreamWAL, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if b, _ := st.Load(StreamWAL); !bytes.Equal(b, []byte("helloworld")) {
		t.Fatalf("loaded %q", b)
	}
	if err := st.Truncate(StreamWAL, 7); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(StreamWAL, []byte("!")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the tail written after truncation is where it belongs.
	st2, err := NewDirStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if b, _ := st2.Load(StreamWAL); !bytes.Equal(b, []byte("hellowo!")) {
		t.Fatalf("reopened content %q", b)
	}
	if b, _ := st2.Load("absent"); b != nil {
		t.Fatalf("absent stream loaded %q", b)
	}
	if err := st2.Truncate("absent", 0); err != nil {
		t.Fatalf("truncate of absent stream to 0: %v", err)
	}
}

// TestDirStorageCrashKeepsRecords: a storage abandoned without Close —
// a crash — after appends that outgrew several mappings. A second
// storage over the directory loads every record, the scan stops where
// the fill begins, Recover's truncation drops the fill, and appending
// continues the log in place.
func TestDirStorageCrashKeepsRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	payload := bytes.Repeat([]byte{0xa5}, 1000)
	for i := 0; len(want) < 3<<20; i++ { // past three mappings' growth
		fr := runtime.AppendFrame(nil, payload[:1+i%len(payload)])
		if err := st.Append(StreamWAL, fr); err != nil {
			t.Fatal(err)
		}
		want = append(want, fr...)
	}
	if b, err := st.Load(StreamWAL); err != nil || !bytes.Equal(b, want) {
		t.Fatalf("open stream loaded %d bytes (%v), want its %d", len(b), err, len(want))
	}
	// Crash: st is never closed.

	st2, err := NewDirStorage(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b, err := st2.Load(StreamWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, want) {
		t.Fatalf("crashed stream lost records: %d bytes on disk, %d appended", len(b), len(want))
	}
	_, valid := runtime.ScanFrames(b)
	if valid != int64(len(want)) || tornBytes(b, valid) != 0 {
		t.Fatalf("scan kept %d bytes with %d torn, want %d and 0", valid, tornBytes(b, valid), len(want))
	}
	if err := st2.Truncate(StreamWAL, valid); err != nil {
		t.Fatal(err)
	}
	more := runtime.AppendFrame(nil, []byte("after the crash"))
	if err := st2.Append(StreamWAL, more); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	want = append(want, more...)
	if b, err := os.ReadFile(filepath.Join(dir, StreamWAL+".log")); err != nil || !bytes.Equal(b, want) {
		t.Fatalf("closed file holds %d bytes (%v), want exactly the %d of the log", len(b), err, len(want))
	}
}

// TestDirStorageConcurrentAppends: appends from several goroutines —
// task goroutines log evictions while the ingesting one logs tuples —
// interleave whole records across remaps, with loads in between.
func TestDirStorageConcurrentAppends(t *testing.T) {
	st, err := NewDirStorage(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const writers, each = 4, 3000
	payload := bytes.Repeat([]byte{0x5a}, 200)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := st.Append(StreamWAL, runtime.AppendFrame(nil, payload[:1+(w*each+i)%len(payload)])); err != nil {
					t.Error(err)
					return
				}
				if i%500 == 0 {
					if _, err := st.Load(StreamWAL); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b, err := st.Load(StreamWAL)
	if err != nil {
		t.Fatal(err)
	}
	if frames, valid := runtime.ScanFrames(b); len(frames) != writers*each || valid != int64(len(b)) {
		t.Fatalf("%d frames in %d of %d bytes, want %d frames and every byte", len(frames), valid, len(b), writers*each)
	}
}

// BenchmarkLogIngest: one ingest record through a Manager on directory
// storage — the append a durable engine makes before each tuple takes
// effect.
func BenchmarkLogIngest(b *testing.B) {
	st, err := NewDirStorage(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	mgr, err := NewManager(st, Config{})
	if err != nil {
		b.Fatal(err)
	}
	vals := []tuple.Value{tuple.IntValue(42), tuple.StringValue("abc")}
	b.ReportAllocs()
	var seq uint64
	for b.Loop() {
		seq++
		if err := mgr.LogIngest("R", tuple.Time(seq), vals, seq); err != nil {
			b.Fatal(err)
		}
	}
}
