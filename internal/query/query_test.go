package query

import (
	"strings"
	"testing"
	"time"
)

func set(names ...string) map[string]bool {
	s := map[string]bool{}
	for _, n := range names {
		s[n] = true
	}
	return s
}

func TestPredicateNormalize(t *testing.T) {
	p := Predicate{Left: Attr{"S", "b"}, Right: Attr{"R", "a"}}
	n := p.Normalize()
	if n.Left.String() != "R.a" || n.Right.String() != "S.b" {
		t.Errorf("Normalize = %v", n)
	}
	if p.String() != n.String() {
		t.Error("String should render normalized form")
	}
	// Already-normalized predicates are unchanged.
	if nn := n.Normalize(); nn != n {
		t.Error("Normalize not idempotent")
	}
}

func TestPredicateSides(t *testing.T) {
	p := Predicate{Left: Attr{"R", "a"}, Right: Attr{"S", "b"}}
	if a, ok := p.Side("R"); !ok || a.Name != "a" {
		t.Error("Side(R) wrong")
	}
	if a, ok := p.Other("R"); !ok || a.Rel != "S" {
		t.Error("Other(R) wrong")
	}
	if _, ok := p.Other("T"); ok {
		t.Error("Other(T) should not exist")
	}
	if !p.Connects(set("R"), set("S", "T")) {
		t.Error("Connects(R | S,T) should hold")
	}
	if p.Connects(set("R"), set("T")) {
		t.Error("Connects(R | T) should not hold")
	}
}

func TestParsePaperQuery(t *testing.T) {
	q, rels, err := Parse("q1: R(a) S(a,b) T(b)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "q1" {
		t.Errorf("name = %q", q.Name)
	}
	if len(q.Relations) != 3 || q.Relations[0] != "R" || q.Relations[2] != "T" {
		t.Errorf("relations = %v", q.Relations)
	}
	if len(rels) != 3 || len(rels[1].Attrs) != 2 {
		t.Errorf("declared relations = %v", rels)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %v, want R.a=S.a and S.b=T.b", q.Preds)
	}
	got := []string{q.Preds[0].String(), q.Preds[1].String()}
	if got[0] != "R.a=S.a" || got[1] != "S.b=T.b" {
		t.Errorf("preds = %v", got)
	}
}

func TestParseExplicitPredicates(t *testing.T) {
	q, _, err := Parse("R(x) S(y,z) T(w) | R.x=S.y & S.z=T.w")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %v", q.Preds)
	}
	if q.Preds[0].String() != "R.x=S.y" {
		t.Errorf("pred[0] = %v", q.Preds[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"R(a",
		"R(a) garbage",
		"(a)",
		"R(x) S(y) | R.x=",
		"R(x) S(y) | Rx=S.y",
		"R(x) S(y) | R.x=S.y=T.z",
	}
	for _, text := range bad {
		if _, _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestNewQueryValidation(t *testing.T) {
	// Predicate over a relation not in the query.
	_, err := NewQuery("q", []string{"R", "S"}, []Predicate{{Attr{"R", "a"}, Attr{"T", "b"}}})
	if err == nil {
		t.Error("foreign-relation predicate should fail")
	}
	// Self joins are rejected.
	_, err = NewQuery("q", []string{"R"}, []Predicate{{Attr{"R", "a"}, Attr{"R", "b"}}})
	if err == nil {
		t.Error("self-join predicate should fail")
	}
	// Duplicate predicates collapse.
	q, err := NewQuery("q", []string{"R", "S"}, []Predicate{
		{Attr{"R", "a"}, Attr{"S", "a"}},
		{Attr{"S", "a"}, Attr{"R", "a"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 1 {
		t.Errorf("duplicate predicates not collapsed: %v", q.Preds)
	}
}

func TestConnected(t *testing.T) {
	q := MustParse("q: R(a) S(a,b) T(b)")
	cases := []struct {
		set  map[string]bool
		want bool
	}{
		{set(), true},
		{set("R"), true},
		{set("R", "S"), true},
		{set("S", "T"), true},
		{set("R", "T"), false}, // no direct predicate: cross product
		{set("R", "S", "T"), true},
	}
	for _, c := range cases {
		if got := q.Connected(c.set); got != c.want {
			t.Errorf("Connected(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestPredsWithinBetween(t *testing.T) {
	q := MustParse("q: R(a) S(a,b) T(b)")
	between := q.PredsBetween(set("R", "S"), set("T"))
	if len(between) != 1 || between[0].String() != "S.b=T.b" {
		t.Errorf("PredsBetween = %v", between)
	}
}

func TestSignatureDeduplicates(t *testing.T) {
	a := MustParse("q1: R(a) S(a,b) T(b)")
	b := MustParse("q2: T(b) S(a,b) R(a)")
	if a.Signature() != b.Signature() {
		t.Errorf("signatures differ: %q vs %q", a.Signature(), b.Signature())
	}
	c := MustParse("q3: R(a) S(a)")
	if a.Signature() == c.Signature() {
		t.Error("different queries share a signature")
	}
}

func TestCatalog(t *testing.T) {
	r := &Relation{Name: "R", Attrs: []string{"a"}, Window: time.Second}
	s := &Relation{Name: "S", Attrs: []string{"a", "b"}}
	cat, err := NewCatalog(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 2 || cat.Relation("R") != r || cat.Relation("X") != nil {
		t.Error("catalog lookup broken")
	}
	if got := cat.Names(); got[0] != "R" || got[1] != "S" {
		t.Errorf("Names = %v", got)
	}
	if w := cat.Window("R", time.Minute); w != time.Second {
		t.Errorf("Window(R) = %v", w)
	}
	if w := cat.Window("S", time.Minute); w != time.Minute {
		t.Errorf("Window(S) default = %v", w)
	}
	if _, err := NewCatalog(r, r); err == nil {
		t.Error("duplicate relation should fail")
	}
}

func TestCatalogValidate(t *testing.T) {
	cat := MustCatalog(
		&Relation{Name: "R", Attrs: []string{"a"}},
		&Relation{Name: "S", Attrs: []string{"a", "b"}},
	)
	good := MustParse("q: R(a) S(a)")
	if err := cat.Validate(good); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	badRel := MustParse("q: R(a) T(a)")
	if err := cat.Validate(badRel); err == nil {
		t.Error("unknown relation should fail validation")
	}
	badAttr := MustParse("q: R(z) S(z)")
	if err := cat.Validate(badAttr); err == nil {
		t.Error("unknown attribute should fail validation")
	}
}

func TestParseWorkload(t *testing.T) {
	text := `
# the paper's Sec. V example
q1: R(b) S(b,c) T(c)
q2: S(c) T(c,d) U(d)
`
	qs, cat, err := ParseWorkload(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("queries = %d", len(qs))
	}
	if cat.Len() != 4 {
		t.Fatalf("catalog = %v", cat.Names())
	}
	// S appears in both with attrs {b,c} and {c}: merged to {b,c}.
	s := cat.Relation("S")
	if !s.HasAttr("b") || !s.HasAttr("c") {
		t.Errorf("merged S attrs = %v", s.Attrs)
	}
	// T appears with {c} and {c,d}: merged to {c,d}.
	tt := cat.Relation("T")
	if !tt.HasAttr("c") || !tt.HasAttr("d") {
		t.Errorf("merged T attrs = %v", tt.Attrs)
	}
}

func TestParseWorkloadAutoNames(t *testing.T) {
	qs, _, err := ParseWorkload("R(a) S(a)\nS(b) T(b)")
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Name != "q1" || qs[1].Name != "q2" {
		t.Errorf("auto names = %q, %q", qs[0].Name, qs[1].Name)
	}
}

func TestQueryString(t *testing.T) {
	q := MustParse("q1: R(a) S(a)")
	if !strings.Contains(q.String(), "R ⋈ S") {
		t.Errorf("String = %q", q.String())
	}
}

func TestRelationHelpers(t *testing.T) {
	r := &Relation{Name: "R", Attrs: []string{"a", "b"}}
	if r.Attr("a").String() != "R.a" {
		t.Error("Attr wrong")
	}
	if !r.HasAttr("b") || r.HasAttr("z") {
		t.Error("HasAttr wrong")
	}
	qa := r.QualifiedAttrs()
	if len(qa) != 2 || qa[1] != "R.b" {
		t.Errorf("QualifiedAttrs = %v", qa)
	}
	if r.String() != "R(a,b)" {
		t.Errorf("String = %q", r.String())
	}
}

// TestAttrCompareOrdersRenderedNames pins Attr.Compare to the order of
// the rendered "Rel.Name" strings, with relation names that are prefixes
// of each other or hold bytes below '.', where comparing the relation and
// then the attribute name would order them otherwise; Normalize puts the
// smaller rendered side first.
func TestAttrCompareOrdersRenderedNames(t *testing.T) {
	attrs := []Attr{{"R", "a"}, {"R-x", "a"}, {"R1", "a"}, {"R", "b"}, {"R.", "a"}, {"", "a"}, {"R", ""}, {"R-x", "0"}}
	for i, a := range attrs {
		for _, b := range attrs[i:] {
			want := strings.Compare(a.String(), b.String())
			if got := a.Compare(b); got != want {
				t.Errorf("%q.Compare(%q) = %d, rendered strings compare %d", a, b, got, want)
			}
			if got := b.Compare(a); got != -want {
				t.Errorf("%q.Compare(%q) = %d, rendered strings compare %d", b, a, got, -want)
			}
		}
	}
	if p := (Predicate{Attr{"R", "a"}, Attr{"R-x", "a"}}).Normalize(); p.Left != (Attr{"R-x", "a"}) {
		t.Errorf("Normalize kept %v first; R-x.a renders smaller", p.Left)
	}
}
