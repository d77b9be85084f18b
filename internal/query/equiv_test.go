package query

import (
	"strings"
	"testing"
)

func TestAttrClassesTransitive(t *testing.T) {
	// R.a = S.a, S.a = T.x  =>  {R.a, S.a, T.x} one class.
	preds := []Predicate{
		{Attr{"R", "a"}, Attr{"S", "a"}},
		{Attr{"S", "a"}, Attr{"T", "x"}},
		{Attr{"S", "b"}, Attr{"T", "b"}},
	}
	cls := AttrClasses(preds)
	if !SameClass(cls, Attr{"R", "a"}, Attr{"T", "x"}) {
		t.Error("transitive equality not detected")
	}
	if !SameClass(cls, Attr{"S", "b"}, Attr{"T", "b"}) {
		t.Error("direct equality not detected")
	}
	if SameClass(cls, Attr{"R", "a"}, Attr{"S", "b"}) {
		t.Error("distinct classes merged")
	}
}

func TestSameClassUnknownAttrs(t *testing.T) {
	cls := AttrClasses(nil)
	a := Attr{"R", "a"}
	if !SameClass(cls, a, a) {
		t.Error("identical unknown attrs should compare equal")
	}
	if SameClass(cls, a, Attr{"S", "a"}) {
		t.Error("distinct unknown attrs should differ")
	}
}

func TestAttrClassesDeterministicCanon(t *testing.T) {
	p1 := []Predicate{{Attr{"R", "a"}, Attr{"S", "a"}}, {Attr{"S", "a"}, Attr{"T", "x"}}}
	p2 := []Predicate{{Attr{"S", "a"}, Attr{"T", "x"}}, {Attr{"R", "a"}, Attr{"S", "a"}}}
	c1, c2 := AttrClasses(p1), AttrClasses(p2)
	for a, r := range c1 {
		if c2[a] != r {
			t.Errorf("canonical representative for %v differs by insertion order: %v vs %v", a, r, c2[a])
		}
	}
}

// TestAttrClassesCanonOrdersRenderedNames pins the canonical member to
// the smallest rendered "Rel.Name" string, with relation names that are
// prefixes of each other or hold bytes below '.', where comparing the
// relation and then the attribute name would pick another member.
func TestAttrClassesCanonOrdersRenderedNames(t *testing.T) {
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
	// Every rotation of one chain over the same members: the class's
	// representative is the smallest rendered name whatever the union
	// order.
	chain := []Attr{{"R", "a"}, {"R1", "a"}, {"R-x", "a"}, {"R", "b"}}
	for rot := range chain {
		var preds []Predicate
		for i := 0; i+1 < len(chain); i++ {
			a, b := chain[(rot+i)%len(chain)], chain[(rot+i+1)%len(chain)]
			preds = append(preds, Predicate{a, b})
		}
		cls := AttrClasses(preds)
		for _, a := range chain {
			if got := cls[a]; got != (Attr{"R-x", "a"}) {
				t.Errorf("rotation %d: representative of %v is %v, want R-x.a (the smallest rendered name)", rot, a, got)
			}
		}
	}
	if p := (Predicate{Attr{"R", "a"}, Attr{"R-x", "a"}}).Normalize(); p.Left != (Attr{"R-x", "a"}) {
		t.Errorf("Normalize kept %v first; R-x.a renders smaller", p.Left)
	}
}
