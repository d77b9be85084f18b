// Package cost implements the paper's probe-cost model (Eq. 1): the
// number of tuples sent between stores per time unit for executing a
// probe order, under the independence assumption for intermediate-result
// cardinalities.
//
//	PCost(Q) = Σ_i Σ_j |⋈_{k≤j} S_{σi(k)}| · (1/j) · χ(σi(j+1))
//
// where χ is 1 when the probing tuple can compute the target store's
// partitioning value and the store's parallelism otherwise (the tuple must
// be broadcast to every task, illustration 7 in Fig. 2 of the paper).
package cost

import (
	"slices"

	"clash/internal/query"
	"clash/internal/stats"
)

// Target describes one element of a probe order as the cost model sees
// it: the set of relations materialized in the targeted store, the store's
// partitioning attribute (zero Attr means unpartitioned: probes always
// broadcast), and its parallelism.
type Target struct {
	Rels        map[string]bool
	Partition   query.Attr
	Parallelism int
}

// Estimator derives cardinalities and probe costs from data
// characteristics. The zero value is unusable; construct with New.
type Estimator struct {
	est   *stats.Estimates
	preds []query.Predicate
}

// New builds an estimator for the given estimates. queryPreds should
// contain the predicates of all queries under optimization; routing
// decisions (χ) restrict them per step to the predicates actually
// established on the partial result.
func New(est *stats.Estimates, queryPreds []query.Predicate) *Estimator {
	return &Estimator{est: est, preds: queryPreds}
}

// CardinalityWith estimates the per-time-unit size of the join over the
// relations rels: the product of arrival rates times the selectivity of
// every predicate whose both sides fall inside the set, with sels[i] the
// selectivity of preds[i], as Selectivities returns them. Rates multiply
// in the order of rels and selectivities in predicate order, so equal
// inputs give bit-equal results — float multiplication is not
// associative, so callers pass rels sorted, and a plan's cost does not
// depend on the order a set was built in.
func (e *Estimator) CardinalityWith(rels []string, preds []query.Predicate, sels []float64) float64 {
	card := 1.0
	for _, r := range rels {
		card *= e.est.Rate(r)
	}
	for i, p := range preds {
		if slices.Contains(rels, p.Left.Rel) && slices.Contains(rels, p.Right.Rel) && !repeated(preds[:i], p) {
			card *= sels[i]
		}
	}
	return card
}

// Selectivities returns the estimated selectivity of each predicate, in
// order: a selectivity is looked up by the predicate's rendered name, so
// a caller that prices many steps of one query looks them up once.
func (e *Estimator) Selectivities(preds []query.Predicate) []float64 {
	sels := make([]float64, len(preds))
	for i, p := range preds {
		sels[i] = e.est.Selectivity(p)
	}
	return sels
}

// repeated reports whether p, in either orientation, is among earlier.
func repeated(earlier []query.Predicate, p query.Predicate) bool {
	for _, o := range earlier {
		if o == p || (o.Left == p.Right && o.Right == p.Left) {
			return true
		}
	}
	return false
}

// Knows reports whether a tuple covering the prefix relations can
// compute the value of the target partitioning attribute *soundly*: the
// attribute belongs to a prefix relation, or an equality chain links a
// prefix attribute to it using only predicates already established —
// predicates connecting the prefix to the target (this probe applies
// them) and predicates internal to the target (every stored tuple
// satisfies them). Chains through relations outside prefix ∪ target
// must not transfer the value: their predicates have not been applied
// to the partial result, so equality is not guaranteed. (This matches
// the compiler's per-emission RouteBy computation; using global
// equivalence classes here would price transfers as keyed that the
// runtime can only broadcast.)
func (e *Estimator) Knows(prefix map[string]bool, target Target) bool {
	part := target.Partition
	if part == (query.Attr{}) {
		return false
	}
	if prefix[part.Rel] {
		return true
	}
	// Grow the partitioning attribute's class over the established
	// predicates to a fixed point; the verdict is whether it reaches a
	// prefix attribute. Each pass adds every attribute one established
	// predicate away from the class, so the passes are bounded by the
	// class's diameter. The class lives on the stack while it is small.
	var buf [16]query.Attr
	class := append(buf[:0], part)
	for grew := true; grew; {
		grew = false
		for _, p := range e.preds {
			inL, inR := slices.Contains(class, p.Left), slices.Contains(class, p.Right)
			if inL == inR {
				continue
			}
			l, r := p.Left.Rel, p.Right.Rel
			crossing := (prefix[l] && target.Rels[r]) || (target.Rels[l] && prefix[r])
			internal := target.Rels[l] && target.Rels[r]
			if !crossing && !internal {
				continue
			}
			a := p.Left
			if inL {
				a = p.Right
			}
			if prefix[a.Rel] {
				return true
			}
			class = append(class, a)
			grew = true
		}
	}
	return false
}

// chi is the broadcast factor χ for probing the target store: 1 when
// the probing tuple knows the partitioning value, the store's
// parallelism otherwise.
func chi(knows bool, target Target) float64 {
	if knows || target.Parallelism < 1 {
		return 1
	}
	return float64(target.Parallelism)
}

// SkewFactor estimates the hot-partition amplification of hashing the
// target's stream by its partitioning attribute: the heaviest key's
// share times the parallelism, i.e. max-partition load over mean load
// when one key dominates. 1 means balanced or unknown distribution —
// without a degree sketch the model degrades to the uniform (mean
// selectivity) pricing. The factor never exceeds the parallelism: a
// fully-skewed keyed transfer costs at most a broadcast.
func (e *Estimator) SkewFactor(target Target) float64 {
	par := float64(target.Parallelism)
	if par <= 1 || target.Partition == (query.Attr{}) {
		return 1
	}
	d := e.est.Degree(target.Partition.Qualified())
	if d == nil {
		return 1
	}
	f := d.HotShare() * par
	if f < 1 {
		return 1
	}
	if f > par {
		return par
	}
	return f
}

// PriceStep estimates the cost of step j of a probe order: the prefix
// (the first j elements) sends its partial join result to the store of
// element j+1. rels is the prefix's relation set, sorted; knows the
// Knows verdict for next (next's Rels are not read); preds the
// predicates of the enclosing query and sels their selectivities as
// CardinalityWith takes them. It reads only the estimates, so a step
// whose structure is cached is re-priced under a new snapshot without
// deriving χ again.
//
// The 1/j factor reflects that the arriving tuple joins only with tuples
// that arrived earlier, so each probe order computes a 1/j fraction of
// the symmetric j-way intermediate result (Sec. III of the paper).
//
// A keyed transfer (χ = 1) is additionally priced by the target's degree
// distribution: hashing a skewed attribute concentrates the stream on
// one hot partition, so the effective cost is max(χ, SkewFactor) — the
// hot task, not the average task, bounds the strategy's throughput. A
// broadcast already pays the full parallelism and cannot get worse.
func (e *Estimator) PriceStep(rels []string, j int, knows bool, next Target, preds []query.Predicate, sels []float64) float64 {
	card := e.CardinalityWith(rels, preds, sels)
	c := chi(knows, next)
	if sf := e.SkewFactor(next); sf > c {
		c = sf
	}
	return card / float64(j) * c
}
