package broker

import (
	"testing"

	"clash/internal/tuple"
)

func rec(rel string, ts int64, v int64) Record {
	return Record{Relation: rel, TS: tuple.Time(ts), Vals: []tuple.Value{tuple.IntValue(v)}}
}

func TestAppendRead(t *testing.T) {
	b := New()
	for i := int64(0); i < 10; i++ {
		if off := b.Append("R", rec("R", i, i)); off != i {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	if b.Len("R") != 10 {
		t.Errorf("Len = %d", b.Len("R"))
	}
	recs, err := b.Read("R", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].TS != 3 {
		t.Errorf("Read = %v", recs)
	}
	// Short tail read.
	recs, _ = b.Read("R", 8, 100)
	if len(recs) != 2 {
		t.Errorf("tail read = %d records", len(recs))
	}
	if _, err := b.Read("nope", 0, 1); err == nil {
		t.Error("unknown topic should fail")
	}
	if _, err := b.Read("R", -1, 1); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := b.Read("R", 99, 1); err == nil {
		t.Error("past-end offset should fail")
	}
}

func TestInterleave(t *testing.T) {
	b := New()
	b.Append("R", rec("R", 1, 0))
	b.Append("R", rec("R", 5, 1))
	b.Append("S", rec("S", 2, 0))
	b.Append("S", rec("S", 5, 1))
	out := b.Interleave("R", "S")
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
	wantRel := []string{"R", "S", "R", "S"} // tie at 5 breaks R before S
	wantTS := []int64{1, 2, 5, 5}
	for i := range out {
		if out[i].Relation != wantRel[i] || int64(out[i].TS) != wantTS[i] {
			t.Errorf("pos %d: %v %d, want %s %d", i, out[i].Relation, out[i].TS, wantRel[i], wantTS[i])
		}
	}
}
