package tuple

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{IntValue(42), Int, "42"},
		{IntValue(-7), Int, "-7"},
		{FloatValue(1.5), Float, "1.5"},
		{StringValue("hello"), String, "hello"},
		{BoolValue(true), Bool, "true"},
		{BoolValue(false), Bool, "false"},
		{NullValue(), Null, "NULL"},
		{Value{}, Null, "NULL"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("kind %v: String() = %q, want %q", c.kind, c.v.String(), c.str)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := IntValue(99).Int(); got != 99 {
		t.Errorf("Int() = %d, want 99", got)
	}
	if got := FloatValue(2.25).Float(); got != 2.25 {
		t.Errorf("Float() = %g, want 2.25", got)
	}
	if got := StringValue("x").Str(); got != "x" {
		t.Errorf("Str() = %q, want x", got)
	}
	if !BoolValue(true).Bool() || BoolValue(false).Bool() {
		t.Error("Bool() round trip failed")
	}
	// The accessors' parts rebuild the value bit for bit (== compares the
	// Float payload's bits, so −0.0 and a NaN payload are checked too).
	for _, v := range []Value{NullValue(), IntValue(-3), BoolValue(true), BoolValue(false),
		FloatValue(math.Copysign(0, -1)), FloatValue(math.Float64frombits(0x7ff8_0000_0000_0abc)),
		StringValue(""), StringValue("x")} {
		if got := MakeValue(v.Kind(), v.Int(), v.Str()); got != v {
			t.Errorf("MakeValue(%v, %d, %q) = %#v, want %#v", v.Kind(), v.Int(), v.Str(), got, v)
		}
	}
}

func TestValueEqualityAndMapKey(t *testing.T) {
	m := map[Value]int{}
	m[IntValue(1)] = 1
	m[StringValue("1")] = 2
	m[BoolValue(true)] = 3
	m[FloatValue(1)] = 4
	if len(m) != 4 {
		t.Fatalf("distinct kinds collided: map has %d entries, want 4", len(m))
	}
	if m[IntValue(1)] != 1 {
		t.Error("IntValue(1) lookup failed")
	}
}

func TestValueHashConsistency(t *testing.T) {
	// Property: equal values hash equally; hashing is deterministic.
	f := func(x int64, s string) bool {
		a, b := IntValue(x), IntValue(x)
		if a.Hash() != b.Hash() {
			return false
		}
		c, d := StringValue(s), StringValue(s)
		return c.Hash() == d.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueHashSpreads(t *testing.T) {
	// Sanity: consecutive ints should not land in one bucket of 16.
	buckets := map[uint64]int{}
	for i := int64(0); i < 1024; i++ {
		buckets[IntValue(i).Hash()%16]++
	}
	for b, n := range buckets {
		if n > 1024/16*4 {
			t.Errorf("bucket %d has %d of 1024 values; hash is too clumpy", b, n)
		}
	}
	if len(buckets) < 8 {
		t.Errorf("only %d of 16 buckets populated", len(buckets))
	}
}

func TestValueLessTotalOrder(t *testing.T) {
	vals := []Value{NullValue(), IntValue(1), IntValue(2), FloatValue(0.5), StringValue("a"), StringValue("b"), BoolValue(false), BoolValue(true)}
	for i, a := range vals {
		if a.Less(a) {
			t.Errorf("value %d: Less is not irreflexive", i)
		}
		for _, b := range vals {
			if a != b && a.Less(b) == b.Less(a) {
				t.Errorf("Less not antisymmetric for %v vs %v", a, b)
			}
		}
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("R.a", "R.b")
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Index("R.a") != 0 || s.Index("R.b") != 1 {
		t.Error("Index positions wrong")
	}
	if s.Index("R.c") != -1 {
		t.Error("Index of missing attribute should be -1")
	}
	if got := s.String(); got != "(R.a, R.b)" {
		t.Errorf("String = %q", got)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSchema with duplicate names should panic")
		}
	}()
	NewSchema("R.a", "R.a")
}

func TestSchemaConcat(t *testing.T) {
	a := NewSchema("R.a")
	b := NewSchema("S.b", "S.c")
	c := a.Concat(b)
	want := []string{"R.a", "S.b", "S.c"}
	got := c.Names()
	if len(got) != len(want) {
		t.Fatalf("Concat names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Concat names = %v, want %v", got, want)
		}
	}
	// Originals unchanged.
	if a.Len() != 1 || b.Len() != 2 {
		t.Error("Concat mutated its inputs")
	}
}

func TestTupleGetJoin(t *testing.T) {
	rs := NewSchema("R.a", "R.b")
	ss := NewSchema("S.b", "S.c")
	r := New(rs, 10, IntValue(1), StringValue("x"))
	s := New(ss, 20, StringValue("x"), IntValue(3))

	if v, ok := r.Get("R.a"); !ok || v.Int() != 1 {
		t.Error("Get R.a failed")
	}
	if _, ok := r.Get("S.c"); ok {
		t.Error("Get of absent attribute should report false")
	}
	// Arena.Join takes the schema it is given: the concatenation the
	// caller derived once with Concat.
	var a Arena
	joined := rs.Concat(ss)
	j := a.Join(r, s, joined)
	if j.Schema != joined {
		t.Error("Arena.Join ignored the given schema")
	}
	if got, want := j.Schema.Names(), []string{"R.a", "R.b", "S.b", "S.c"}; !slices.Equal(got, want) {
		t.Errorf("joined schema = %v, want %v", got, want)
	}
	if j.TS != 20 {
		t.Errorf("joined TS = %d, want max input 20", j.TS)
	}
	want := []Value{IntValue(1), StringValue("x"), StringValue("x"), IntValue(3)}
	if !slices.Equal(j.Values, want) {
		t.Errorf("joined values = %v, want %v", j.Values, want)
	}
	if v := j.MustGet("S.c"); v.Int() != 3 {
		t.Error("joined tuple lost S.c")
	}
	// The later tuple probing: same timestamp, the columns swapped, and
	// fresh cells — the first result is unchanged.
	j2 := a.Join(s, r, ss.Concat(rs))
	if got, want := j2.Schema.Names(), []string{"S.b", "S.c", "R.a", "R.b"}; !slices.Equal(got, want) {
		t.Errorf("joined schema = %v, want %v", got, want)
	}
	if j2.TS != 20 {
		t.Errorf("joined TS = %d with the later tuple probing, want 20", j2.TS)
	}
	if !slices.Equal(j.Values, want) {
		t.Errorf("a later Arena.Join overwrote an earlier result: %v", j.Values)
	}
}

func TestTupleArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with wrong arity should panic")
		}
	}()
	New(NewSchema("R.a"), 0, IntValue(1), IntValue(2))
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet of absent attribute should panic")
		}
	}()
	New(NewSchema("R.a"), 0, IntValue(1)).MustGet("R.z")
}

func TestMemSizeMonotone(t *testing.T) {
	s1 := NewSchema("R.a")
	s2 := NewSchema("R.a", "R.b")
	small := New(s1, 0, IntValue(1))
	big := New(s2, 0, IntValue(1), StringValue("some longer payload"))
	if small.MemSize() >= big.MemSize() {
		t.Errorf("MemSize not monotone: %d vs %d", small.MemSize(), big.MemSize())
	}
	if IntValue(0).MemSize() <= 0 || StringValue("abc").MemSize() <= IntValue(0).MemSize() {
		t.Error("value MemSize unreasonable")
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(1000)
	t1 := t0.Add(500)
	if t1 != 1500 {
		t.Errorf("Add = %d, want 1500", t1)
	}
	if d := t1.Sub(t0); d != 500 {
		t.Errorf("Sub = %d, want 500", d)
	}
}

func TestTupleString(t *testing.T) {
	s := NewSchema("R.a")
	got := New(s, 5, IntValue(7)).String()
	if got != "[ts=5 R.a=7]" {
		t.Errorf("String = %q", got)
	}
}

// carveJoins carves n join results of r and s from the arena.
func carveJoins(a *Arena, r, s *Tuple, joined *Schema, n int) []*Tuple {
	out := make([]*Tuple, n)
	for i := range out {
		out[i] = a.Join(r, s, joined)
	}
	return out
}

func TestArenaResetRecycles(t *testing.T) {
	rs, ss := NewSchema("R.a", "R.b"), NewSchema("S.b", "S.c")
	r, s := New(rs, 10, IntValue(1), StringValue("x")), New(ss, 20, StringValue("x"), IntValue(3))
	joined := rs.Concat(ss)
	var a Arena
	carveJoins(&a, r, s, joined, 100)
	if a.keepT != nil || a.keepV != nil {
		t.Fatal("an arena that was never Reset keeps blocks")
	}
	a.Reset()
	cycle := func() {
		for range 100 {
			a.Join(r, s, joined)
		}
		a.Reset()
	}
	cycle() // carves the blocks the arena keeps
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("a Reset cycle of 100 results allocates %.1f objects, want 0", n)
	}
	// A batch larger than the kept blocks carves the rest fresh and keeps
	// no more than arenaKeep of each kind.
	big := arenaKeep*arenaTupleChunk + 1
	res := carveJoins(&a, r, s, joined, big)
	if len(a.keepT) != arenaKeep || len(a.keepV) > arenaKeep {
		t.Errorf("after a %d-result batch the arena keeps %d tuple and %d value blocks, want ≤ %d",
			big, len(a.keepT), len(a.keepV), arenaKeep)
	}
	for i, j := range res {
		if j.Values[3] != IntValue(3) || j.TS != 20 {
			t.Fatalf("result %d of the large batch reads %v", i, j)
		}
	}
	a.Reset()
}

func TestArenaResetPoisons(t *testing.T) {
	defer func(on bool) { PoisonRecycled = on }(PoisonRecycled)
	PoisonRecycled = true
	rs, ss := NewSchema("R.a"), NewSchema("S.a")
	r, s := New(rs, 1, IntValue(7)), New(ss, 2, IntValue(7))
	joined := rs.Concat(ss)
	var a Arena
	a.Reset()
	// Spill past the first block of each kind, so the poison covers a
	// whole block and the one being carved.
	n := arenaValueChunk/2 + 3
	res := carveJoins(&a, r, s, joined, n)
	kept := res[n-1].Clone()
	a.Reset()
	for i, j := range res {
		if j.Schema.Len() != 0 || j.TS != math.MinInt64 || j.Values[0] != recycledValue || j.Values[1] != recycledValue {
			t.Fatalf("recycled result %d reads %v %v, not poison", i, j, j.Values)
		}
	}
	if kept.String() != "[ts=2 R.a=7 S.a=7]" {
		t.Errorf("the clone reads %s after the Reset", kept)
	}
	// The next batch carves from the poisoned blocks: every value it
	// reads is its own.
	next := a.Join(s, r, ss.Concat(rs))
	if next.String() != "[ts=2 S.a=7 R.a=7]" {
		t.Errorf("a result carved from a recycled block reads %s", next)
	}
}

func TestCloneOwnsValues(t *testing.T) {
	orig := New(NewSchema("R.a", "R.b"), 5, IntValue(1), StringValue("x"))
	c := orig.Clone()
	orig.Values[0] = IntValue(9)
	if c.Schema != orig.Schema || c.TS != 5 || c.Values[0] != IntValue(1) || c.Values[1] != StringValue("x") {
		t.Errorf("Clone = %v, want an independent copy of [ts=5 R.a=1 R.b=x]", c)
	}
}
