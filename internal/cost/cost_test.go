package cost

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
)

// paperEstimates reproduces the Sec. V-2 worked example: all relations
// stream at 100 tuples per time unit; S⋈T produces 150 intermediate
// results, all other joins produce 100.
func paperEstimates(t *testing.T) (*Estimator, *query.Query, *query.Query) {
	t.Helper()
	q1 := query.MustParse("q1: R(a) S(a,b) T(b)")
	q2 := query.MustParse("q2: S(b2) T(b2,c) U(c)")
	// Rename: the paper's second example query joins S–T on b and T–U on
	// c; express S–T with the same predicate as in q1 so the shared step
	// is literally shared.
	q2 = query.MustParse("q2: S(b) T(b,c) U(c)")
	e := stats.NewEstimates(0.01)
	for _, r := range []string{"R", "S", "T", "U"} {
		e.SetRate(r, 100)
	}
	st := query.Predicate{Left: query.Attr{Rel: "S", Name: "b"}, Right: query.Attr{Rel: "T", Name: "b"}}
	e.SetSelectivity(st, 0.015) // 100*100*0.015 = 150
	var preds []query.Predicate
	preds = append(preds, q1.Preds...)
	preds = append(preds, q2.Preds...)
	return New(e, preds), q1, q2
}

func tgt(rel string) Target {
	return Target{Rels: map[string]bool{rel: true}, Parallelism: 1}
}

// step prices step j of a probe order whose first j elements cover the
// prefix relations, the way the optimizer shapes and prices it: the
// relations sorted, χ from Knows.
func step(est *Estimator, preds []query.Predicate, j int, next Target, prefix ...string) float64 {
	set := map[string]bool{}
	for _, r := range prefix {
		set[r] = true
	}
	rels := slices.Sorted(maps.Keys(set))
	return est.PriceStep(rels, j, est.Knows(set, next), next, preds, est.Selectivities(preds))
}

func TestJoinCardinalityPaperNumbers(t *testing.T) {
	est, q1, _ := paperEstimates(t)
	card := func(rels ...string) float64 { return est.CardinalityWith(rels, q1.Preds, est.Selectivities(q1.Preds)) }
	if got := card("R", "S"); got != 100 {
		t.Errorf("|R⋈S| = %g, want 100", got)
	}
	if got := card("S", "T"); got != 150 {
		t.Errorf("|S⋈T| = %g, want 150", got)
	}
	if got := card("S"); got != 100 {
		t.Errorf("|S| = %g, want rate 100", got)
	}
	// 100^3 * 0.01 * 0.015 = 150.
	if got := card("R", "S", "T"); math.Abs(got-150) > 1e-9 {
		t.Errorf("|R⋈S⋈T| = %g, want 150", got)
	}
}

// TestJoinCardinalityIsPure pins that a cardinality, and with it every
// step and plan cost, is a function of its inputs to the last bit: rates
// multiply in the order of the relation list, which callers sort. Over
// these five rates the product reads three different float64 values
// depending on the order, so an unsorted caller would price one set
// three ways.
func TestJoinCardinalityIsPure(t *testing.T) {
	e := stats.NewEstimates(0.01)
	var rels []string
	want := 1.0
	for i, rate := range []float64{0.1, 0.7, 1.3, 3.3, 97.1} {
		r := string(rune('A' + i))
		e.SetRate(r, rate)
		rels = append(rels, r)
		want *= rate
	}
	est := New(e, nil)
	for i := 0; i < 2000; i++ {
		if got := est.CardinalityWith(rels, nil, nil); got != want {
			t.Fatalf("call %d: %.17g, want the sorted-order product %.17g", i, got, want)
		}
	}
}

func TestProbeOrderCostPaperExample(t *testing.T) {
	est, q1, _ := paperEstimates(t)
	// ⟨S,R,T⟩: 100 (S→R) + 100/2 (RS→T) = 150.
	srt := step(est, q1.Preds, 1, tgt("R"), "S") + step(est, q1.Preds, 2, tgt("T"), "S", "R")
	if srt != 150 {
		t.Errorf("PCost⟨S,R,T⟩ = %g, want 150", srt)
	}
	// ⟨S,T,R⟩: 100 (S→T) + 150/2 (ST→R) = 175.
	str := step(est, q1.Preds, 1, tgt("T"), "S") + step(est, q1.Preds, 2, tgt("R"), "S", "T")
	if str != 175 {
		t.Errorf("PCost⟨S,T,R⟩ = %g, want 175", str)
	}
}

func TestStepCostComponents(t *testing.T) {
	est, q1, _ := paperEstimates(t)
	// First step: |S| * 1/1 * χ=1 = 100.
	if got := step(est, q1.Preds, 1, tgt("R"), "S"); got != 100 {
		t.Errorf("step1 = %g, want 100", got)
	}
	// Second step: |S⋈T|/2 = 75.
	if got := step(est, q1.Preds, 2, tgt("R"), "S", "T"); got != 75 {
		t.Errorf("step2 = %g, want 75", got)
	}
}

func TestChiBroadcast(t *testing.T) {
	est, _, _ := paperEstimates(t)
	chiOf := func(prefix map[string]bool, target Target) float64 { return chi(est.Knows(prefix, target), target) }
	// T-store partitioned by T.b, parallelism 5.
	tb := Target{Rels: map[string]bool{"T": true}, Partition: query.Attr{Rel: "T", Name: "b"}, Parallelism: 5}
	// A tuple covering {R} does not know b (R has only a): broadcast.
	if got := chiOf(map[string]bool{"R": true}, tb); got != 5 {
		t.Errorf("χ(R→T[b]) = %g, want 5 (broadcast)", got)
	}
	// A tuple covering {R,S} knows S.b = T.b: routed.
	if got := chiOf(map[string]bool{"R": true, "S": true}, tb); got != 1 {
		t.Errorf("χ(RS→T[b]) = %g, want 1", got)
	}
	// Unpartitioned stores always broadcast.
	un := Target{Rels: map[string]bool{"T": true}, Parallelism: 4}
	if got := chiOf(map[string]bool{"S": true}, un); got != 4 {
		t.Errorf("χ(unpartitioned) = %g, want 4", got)
	}
	// Parallelism 1 broadcast degenerates to 1.
	solo := Target{Rels: map[string]bool{"T": true}, Parallelism: 1}
	if got := chiOf(map[string]bool{"R": true}, solo); got != 1 {
		t.Errorf("χ(parallelism 1) = %g, want 1", got)
	}
}

func TestChiTransitiveRouting(t *testing.T) {
	// R.a=S.a and S.a=T.x: a tuple covering only {R} must NOT be priced
	// as routable to a T-store partitioned by T.x — the chain runs
	// through S, which the partial result has not joined, so R.a=T.x is
	// not established (and CLASH never generates this cross-product
	// probe anyway). Once S is in the prefix, S.a=T.x routes directly.
	preds := []query.Predicate{
		{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}},
		{Left: query.Attr{Rel: "S", Name: "a"}, Right: query.Attr{Rel: "T", Name: "x"}},
	}
	e := stats.NewEstimates(0.01)
	est := New(e, preds)
	tx := Target{Rels: map[string]bool{"T": true}, Partition: query.Attr{Rel: "T", Name: "x"}, Parallelism: 8}
	if got := chi(est.Knows(map[string]bool{"R": true}, tx), tx); got != 8 {
		t.Errorf("unapplied chain: χ = %g, want 8 (broadcast)", got)
	}
	if got := chi(est.Knows(map[string]bool{"R": true, "S": true}, tx), tx); got != 1 {
		t.Errorf("applied chain: χ = %g, want 1", got)
	}
}

func TestStepCostBroadcastMultiplies(t *testing.T) {
	est, q1, _ := paperEstimates(t)
	tb := Target{Rels: map[string]bool{"T": true}, Partition: query.Attr{Rel: "T", Name: "b"}, Parallelism: 5}
	// R probing T[b] directly: broadcast ×5 on top of |R| = 100.
	if got := step(est, q1.Preds, 1, tb, "R"); got != 500 {
		t.Errorf("broadcast step = %g, want 500", got)
	}
}

func TestMIRTargetCardinality(t *testing.T) {
	est, q1, _ := paperEstimates(t)
	// Probe order ⟨R, ST⟩: one step, |R| * χ. The ST store holds S⋈T.
	stStore := Target{Rels: map[string]bool{"S": true, "T": true}, Partition: query.Attr{Rel: "S", Name: "a"}, Parallelism: 1}
	if got := step(est, q1.Preds, 1, stStore, "R"); got != 100 {
		t.Errorf("PCost⟨R,ST⟩ = %g, want 100", got)
	}
	// Prefix {R, ST} covers all three relations in two elements; a
	// further step from the combined prefix uses card(R⋈S⋈T) = 150 at
	// j=2 → 75. No predicate links U here; this path only checks the j
	// divisor handling.
	if got := step(est, q1.Preds, 2, tgt("U"), "R", "S", "T"); math.Abs(got-75) > 1e-9 {
		t.Errorf("MIR prefix step = %g, want 150/2", got)
	}
}

func TestKnowsZeroAttr(t *testing.T) {
	est, _, _ := paperEstimates(t)
	un := Target{Rels: map[string]bool{"S": true}}
	if est.Knows(map[string]bool{"R": true}, un) {
		t.Error("zero partition attribute must never be known")
	}
}

func TestKnowsRejectsUnappliedChains(t *testing.T) {
	// q: R.a=S.a and S.a=T.a. A partial result over {R} probing T[T.a]
	// has NOT established R.a=T.a: the chain runs through S, which is
	// not joined yet, so the value must not be considered known. With
	// S in the prefix the chain is applied and the value is known.
	preds := []query.Predicate{
		{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}},
		{Left: query.Attr{Rel: "S", Name: "a"}, Right: query.Attr{Rel: "T", Name: "a"}},
	}
	e := New(stats.NewEstimates(0.01), preds)
	tT := Target{Rels: map[string]bool{"T": true}, Partition: query.Attr{Rel: "T", Name: "a"}, Parallelism: 4}
	if e.Knows(map[string]bool{"R": true}, tT) {
		t.Error("value considered known through an unapplied chain")
	}
	if !e.Knows(map[string]bool{"R": true, "S": true}, tT) {
		t.Error("value not known although S.a=T.a connects the prefix directly")
	}
}

func TestKnowsIgnoresForeignQueryEqualities(t *testing.T) {
	// Another query's predicate R.b=T.x must not let an R-probe route
	// into T[T.x] for a query that only equates R.a=T.y: the conflation
	// is exactly the routing bug global classes cause.
	preds := []query.Predicate{
		{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "T", Name: "y"}},
		{Left: query.Attr{Rel: "R", Name: "b"}, Right: query.Attr{Rel: "U", Name: "k"}},
		{Left: query.Attr{Rel: "U", Name: "k"}, Right: query.Attr{Rel: "T", Name: "x"}},
	}
	e := New(stats.NewEstimates(0.01), preds)
	tT := Target{Rels: map[string]bool{"T": true}, Partition: query.Attr{Rel: "T", Name: "x"}, Parallelism: 4}
	if e.Knows(map[string]bool{"R": true}, tT) {
		t.Error("R probe considered T.x known via a chain through unjoined U")
	}
}

// refKnows is Knows as it was first written, kept as the reference the
// fixed-point version must agree with: restrict the predicates to those
// the step establishes, take their union-find classes, and look for a
// prefix attribute in the partitioning attribute's class.
func refKnows(preds []query.Predicate, prefix map[string]bool, target Target) bool {
	part := target.Partition
	if part == (query.Attr{}) {
		return false
	}
	if prefix[part.Rel] {
		return true
	}
	var restricted []query.Predicate
	for _, p := range preds {
		l, r := p.Left.Rel, p.Right.Rel
		crossing := (prefix[l] && target.Rels[r]) || (target.Rels[l] && prefix[r])
		internal := target.Rels[l] && target.Rels[r]
		if crossing || internal {
			restricted = append(restricted, p)
		}
	}
	classes := attrClasses(restricted)
	for _, p := range restricted {
		for _, a := range [2]query.Attr{p.Left, p.Right} {
			if prefix[a.Rel] && classes[a] == classes[part] {
				return true
			}
		}
	}
	return false
}

// attrClasses computes the equivalence classes of qualified attributes
// induced by equi-join predicates by union-find: it maps each attribute a
// predicate names to its class's representative.
func attrClasses(preds []query.Predicate) map[query.Attr]query.Attr {
	parent := map[query.Attr]query.Attr{}
	var find func(a query.Attr) query.Attr
	find = func(a query.Attr) query.Attr {
		if p, ok := parent[a]; ok && p != a {
			root := find(p)
			parent[a] = root
			return root
		}
		parent[a] = a
		return a
	}
	for _, p := range preds {
		if ra, rb := find(p.Left), find(p.Right); ra != rb {
			parent[rb] = ra
		}
	}
	for a := range parent {
		find(a)
	}
	return parent
}

// randomKnowsCase draws a predicate set over a few relations with few
// attributes each, so that chains, cycles, repeated and reversed
// predicates and predicates outside prefix ∪ target all occur, plus a
// prefix, a target relation set disjoint from it, and a partitioning
// attribute (sometimes the zero one, sometimes on a relation nobody
// joins).
func randomKnowsCase(r *rng.RNG) ([]query.Predicate, map[string]bool, Target) {
	nRels := 2 + r.Intn(6)
	rels := make([]string, nRels)
	for i := range rels {
		rels[i] = fmt.Sprintf("R%d", i)
	}
	attr := func() query.Attr {
		return query.Attr{Rel: rels[r.Intn(nRels)], Name: string(rune('a' + r.Intn(3)))}
	}
	var preds []query.Predicate
	for n := r.Intn(14); len(preds) < n; {
		a, b := attr(), attr()
		if a.Rel == b.Rel {
			continue
		}
		preds = append(preds, query.Predicate{Left: a, Right: b})
		if r.Intn(6) == 0 {
			preds = append(preds, query.Predicate{Left: b, Right: a})
		}
	}
	prefix, inTarget := map[string]bool{}, map[string]bool{}
	for _, rel := range rels {
		switch r.Intn(3) {
		case 0:
			prefix[rel] = true
		case 1:
			inTarget[rel] = true
		}
	}
	target := Target{Rels: inTarget, Parallelism: 4}
	switch r.Intn(8) {
	case 0: // unpartitioned
	case 1:
		target.Partition = query.Attr{Rel: "Z", Name: "a"}
	default:
		target.Partition = attr()
	}
	return preds, prefix, target
}

// TestKnowsMatchesUnionFind runs the fixed-point Knows against the
// union-find reference over seeded random predicate sets, prefixes and
// targets, and names the seed of the first disagreement.
func TestKnowsMatchesUnionFind(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 4000
	}
	trues := 0
	for seed := uint64(1); seed <= uint64(cases); seed++ {
		preds, prefix, target := randomKnowsCase(rng.New(seed))
		want := refKnows(preds, prefix, target)
		if got := New(stats.NewEstimates(0.01), preds).Knows(prefix, target); got != want {
			t.Fatalf("seed %d: Knows = %v, union-find reference %v\npreds %v\nprefix %v target %v by %v",
				seed, got, want, preds, prefix, target.Rels, target.Partition)
		}
		if want {
			trues++
		}
	}
	// Both verdicts must be well represented, or the comparison says little.
	if trues < cases/10 || trues > cases*9/10 {
		t.Fatalf("%d of %d cases know the partition: the generator is lopsided", trues, cases)
	}
}

// TestKnowsAllocatesNothing pins that pricing a step's χ allocates: it
// runs once per step of every decorated candidate the structure builds.
func TestKnowsAllocatesNothing(t *testing.T) {
	var preds []query.Predicate
	for i := 0; i < 12; i++ { // a chain R0.a = R1.a = … = R12.a
		preds = append(preds, query.Predicate{
			Left:  query.Attr{Rel: fmt.Sprintf("R%d", i), Name: "a"},
			Right: query.Attr{Rel: fmt.Sprintf("R%d", i+1), Name: "a"}})
	}
	e := New(stats.NewEstimates(0.01), preds)
	prefix := map[string]bool{"R0": true}
	target := Target{Rels: map[string]bool{}, Partition: query.Attr{Rel: "R12", Name: "a"}, Parallelism: 4}
	for i := 1; i <= 12; i++ {
		target.Rels[fmt.Sprintf("R%d", i)] = true
	}
	if !e.Knows(prefix, target) {
		t.Fatal("the chain's far end is known through the target's internal predicates")
	}
	if n := testing.AllocsPerRun(100, func() { e.Knows(prefix, target) }); n != 0 {
		t.Fatalf("Knows allocates %v times per call, want 0", n)
	}
}
