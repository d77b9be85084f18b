package runtime

import (
	"maps"
	"sort"
	"strings"
	"testing"

	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/tuple"
)

// bruteForceJoin is ReferenceJoin's semantics by its definition: it
// enumerates the full Cartesian product of the query's relations and
// tests every predicate, the window and the ordering at the leaf. It is
// the reference the binding-order oracle is checked against.
func bruteForceJoin(q *query.Query, cat *query.Catalog, defWindow tuple.Duration, inputs []Ingestion) map[string]int {
	type member struct {
		rel  string
		ts   tuple.Time
		seq  uint64
		vals map[string]tuple.Value
	}
	byRel := map[string][]member{}
	for i, in := range inputs {
		r := cat.Relation(in.Rel)
		if r == nil {
			continue
		}
		vals := map[string]tuple.Value{}
		for j, a := range r.Attrs {
			vals[in.Rel+"."+a] = in.Vals[j]
		}
		vals[in.Rel+"."+tuple.EventTime] = tuple.IntValue(int64(in.TS))
		byRel[in.Rel] = append(byRel[in.Rel], member{rel: in.Rel, ts: in.TS, seq: uint64(i + 1), vals: vals})
	}

	out := map[string]int{}
	chosen := make([]member, len(q.Relations))
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Relations) {
			for _, p := range q.Preds {
				var lv, rv tuple.Value
				var okL, okR bool
				for _, m := range chosen {
					if v, ok := m.vals[p.Left.Qualified()]; ok {
						lv, okL = v, true
					}
					if v, ok := m.vals[p.Right.Qualified()]; ok {
						rv, okR = v, true
					}
				}
				if !okL || !okR || lv != rv {
					return
				}
			}
			latest := chosen[0]
			for _, m := range chosen[1:] {
				if m.seq > latest.seq {
					latest = m
				}
			}
			for _, m := range chosen {
				if m.seq == latest.seq {
					continue
				}
				w := cat.Window(m.rel, defWindow)
				if w > 0 && int64(latest.ts)-int64(m.ts) > int64(w) {
					return
				}
			}
			var parts []string
			for _, m := range chosen {
				for k, v := range m.vals {
					parts = append(parts, k+"="+v.String())
				}
			}
			sort.Strings(parts)
			out[strings.Join(parts, "|")]++
			return
		}
		for _, m := range byRel[q.Relations[i]] {
			chosen[i] = m
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// TestReferenceJoinMatchesBruteForce checks the binding-order oracle
// against the Cartesian enumeration on seeded random streams over
// chains and stars of 2–4 relations, a pair no predicate connects (a
// cross product) and a multi-query set, under default and per-relation
// windows, over small integer keys and mixedPalette values, with late
// arrivals whose event time runs backwards.
func TestReferenceJoinMatchesBruteForce(t *testing.T) {
	workloads := map[string][]string{
		"chain": {"q1: A(x) B(x)", "q1: A(x) B(x,y) C(y)", "q1: A(x) B(x,y) C(y,z) D(z)"},
		"star":  {"q1: A(x,y) B(x) C(y)", "q1: A(x,y,z) B(x) C(y) D(z)"},
		"cross": {"q1: A(x) B(y)", "q1: A(x) B(x) C(y)"},
		"multi": {"q1: A(a) B(a,b) C(b)\nq2: B(b) C(b,c) D(c)\nq3: C(c) D(c)"},
	}
	for shape, texts := range workloads {
		results := 0
		for seed := uint64(1); seed <= 12; seed++ {
			text := texts[int(seed)%len(texts)]
			qs, cat, err := query.ParseWorkload(text)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed)
			var defW tuple.Duration
			switch seed % 3 {
			case 1:
				defW = 15
			case 2: // per-relation windows, the first relation's the default
				for _, name := range cat.Names()[1:] {
					cat.Relation(name).Window = tuple.Duration(5 + r.Intn(30))
				}
				defW = 25
			}
			ins := randomStream(cat, 12*cat.Len(), 3, seed)
			if seed%2 == 0 {
				ins = mixedStream(cat, 12*cat.Len(), 16, seed)
			}
			for i := range ins {
				if r.Intn(5) == 0 {
					ins[i].TS -= tuple.Time(r.Intn(20))
				}
			}
			for _, q := range qs {
				want := bruteForceJoin(q, cat, defW, ins)
				if got := ReferenceJoin(q, cat, defW, ins); !maps.Equal(got, want) {
					t.Errorf("seed %d %q, %s: ReferenceJoin has %d distinct results, brute force %d", seed, text, q.Name, len(got), len(want))
				}
				for _, c := range want {
					results += c
				}
			}
		}
		if results == 0 {
			t.Errorf("%s: no results in any case — test vacuous", shape)
		}
	}
}
