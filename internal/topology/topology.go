// Package topology describes executable CLASH processing strategies: a
// graph of partitioned relation stores connected by labeled edges, with
// per-store rulesets that tell each worker how to handle tuples arriving
// over each edge (Sec. IV-B and V-B of the paper).
//
// A Config is immutable once built; the adaptive runtime swaps entire
// configs at epoch boundaries (Sec. VI-A).
package topology

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"clash/internal/query"
)

// StoreID identifies a store: the MIR key plus the partitioning attribute
// (stores with equal IDs hold identical state and are shared between
// probe trees, Fig. 4).
type StoreID string

// EdgeID identifies one edge of a probe tree. Rules are keyed by the
// incoming edge: the sending store is not enough because different probe
// trees may route different (sub)relations between the same store pair.
type EdgeID string

// Store describes one relation or intermediate-result store.
type Store struct {
	ID          StoreID
	MIRKey      string // canonical MIR identity (relations + predicates)
	Label       string // short human-readable label, e.g. "ST"
	Rels        []string
	Preds       []query.Predicate // predicates materialized inside the store
	Partition   query.Attr        // zero Attr: unpartitioned (random placement)
	Parallelism int
	// SplitKeys lists the value hashes of heavy-hitter partition keys the
	// optimizer decided to split across two tasks instead of hashing onto
	// one hot partition. Inserts of a split key go to the less-loaded of
	// its two candidate tasks; probes visit both. Sorted ascending for
	// deterministic configs.
	SplitKeys []uint64
}

// Base reports whether this store holds a single input relation.
func (s *Store) Base() bool { return len(s.Rels) == 1 }

// String renders the store as "ST[S.b] x4".
func (s *Store) String() string {
	p := ""
	if s.Partition != (query.Attr{}) {
		p = "[" + s.Partition.String() + "]"
	}
	return fmt.Sprintf("%s%s x%d", s.Label, p, s.Parallelism)
}

// RuleKind distinguishes store rules from probe rules (Alg. 3).
type RuleKind int

// Rule kinds.
const (
	StoreRule RuleKind = iota // add the arriving tuple to the local store
	ProbeRule                 // probe stored tuples, emit join results
)

func (k RuleKind) String() string {
	if k == StoreRule {
		return "store"
	}
	return "probe"
}

// Emission is one output of a rule: results are sent over Edge to store
// To, or — when To is empty — to the sink of query Sink.
type Emission struct {
	Edge EdgeID
	To   StoreID
	Sink string // query name for terminal emissions
	// RouteBy is the qualified attribute of the *sending* tuple whose
	// hash routes the transfer to one partition of the target store. The
	// compiler sets it only when that attribute's equality to the
	// store's partitioning attribute is guaranteed for every rule
	// consuming this edge — via the probe's own predicates or predicates
	// every stored tuple already satisfies. Empty means the sender
	// cannot route soundly: probes broadcast, inserts fall back to the
	// store's own partitioning attribute.
	RouteBy string
}

// Rule tells a store how to process tuples arriving over edge In:
// StoreRules insert the tuple; ProbeRules join it against stored tuples
// using Preds and forward results along Out.
type Rule struct {
	Kind  RuleKind
	Store StoreID
	In    EdgeID
	Preds []query.Predicate // probe predicates (incoming ⋈ stored)
	Out   []Emission
}

// Spout is the ingestion point of one input relation; its emissions
// deliver each arriving raw tuple to the relation's own store (a
// StoreRule edge) and to the first store of every probe tree rooted at
// the relation.
type Spout struct {
	Relation string
	Out      []Emission
}

// Config is a complete deployable strategy: all stores, spouts, and the
// rulesets. Configs are identified by the epoch they take effect in.
type Config struct {
	Epoch  int64
	Stores map[StoreID]*Store
	Spouts map[string]*Spout
	// Rules indexed by store then by incoming edge (the hot path of
	// Alg. 3 consults ruleset[e_in]).
	Rules map[StoreID]map[EdgeID][]Rule
}

// TotalTasks returns the number of worker tasks the config deploys
// (the sum of store parallelisms).
func (c *Config) TotalTasks() int {
	n := 0
	for _, s := range c.Stores {
		n += s.Parallelism
	}
	return n
}

// StoreIDs returns the store IDs in deterministic order.
func (c *Config) StoreIDs() []StoreID {
	ids := make([]StoreID, 0, len(c.Stores))
	for id := range c.Stores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// IsStoreEdge reports whether a StoreRule at store `to` consumes tuples
// arriving over `edge` — i.e. whether an emission over that edge
// materializes state. It resolves rule metadata for plan compilation
// (the runtime bakes the answer into each compiled emission at Install
// time; per-tuple code never calls this).
func (c *Config) IsStoreEdge(to StoreID, edge EdgeID) bool {
	for _, r := range c.Rules[to][edge] {
		if r.Kind == StoreRule {
			return true
		}
	}
	return false
}

// Validate checks referential integrity: every emission targets an
// existing store (or a sink), every rule belongs to an existing store,
// and probe rules carry at least one predicate unless the store is
// probed as a cross product (which the optimizer never emits).
func (c *Config) Validate() error {
	check := func(out []Emission) error {
		for _, e := range out {
			if e.To == "" && e.Sink == "" {
				return errors.New("emission with neither target nor sink")
			}
			if e.To != "" {
				if _, ok := c.Stores[e.To]; !ok {
					return fmt.Errorf("emission to unknown store %q", e.To)
				}
			}
		}
		return nil
	}
	for rel, sp := range c.Spouts {
		if err := check(sp.Out); err != nil {
			return fmt.Errorf("topology: spout %s: %w", rel, err)
		}
	}
	for id, byEdge := range c.Rules {
		if _, ok := c.Stores[id]; !ok {
			return fmt.Errorf("topology: ruleset for unknown store %q", id)
		}
		for edge, rules := range byEdge {
			for _, r := range rules {
				if r.Store != id || r.In != edge {
					return fmt.Errorf("topology: misfiled rule %v under %s/%s", r, id, edge)
				}
				if err := check(r.Out); err != nil {
					return fmt.Errorf("topology: rule %s@%s: %w", id, edge, err)
				}
			}
		}
	}
	return nil
}

// String renders a readable summary of the config.
func (c *Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "config(epoch=%d, stores=%d, tasks=%d)\n", c.Epoch, len(c.Stores), c.TotalTasks())
	for _, id := range c.StoreIDs() {
		fmt.Fprintf(&b, "  store %s\n", c.Stores[id])
		edges := make([]EdgeID, 0, len(c.Rules[id]))
		for e := range c.Rules[id] {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		for _, e := range edges {
			for _, r := range c.Rules[id][e] {
				fmt.Fprintf(&b, "    on %s: %s", e, r.Kind)
				if r.Kind == ProbeRule {
					ps := make([]string, len(r.Preds))
					for i, p := range r.Preds {
						ps[i] = p.String()
					}
					fmt.Fprintf(&b, " (%s)", strings.Join(ps, " & "))
				}
				for _, em := range r.Out {
					if em.Sink != "" {
						fmt.Fprintf(&b, " -> sink:%s", em.Sink)
					} else {
						fmt.Fprintf(&b, " -> %s/%s", em.To, em.Edge)
					}
				}
				b.WriteByte('\n')
			}
		}
	}
	var rels []string
	for rel := range c.Spouts {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		sp := c.Spouts[rel]
		fmt.Fprintf(&b, "  spout %s", rel)
		for _, em := range sp.Out {
			if em.Sink != "" {
				fmt.Fprintf(&b, " -> sink:%s", em.Sink)
			} else {
				fmt.Fprintf(&b, " -> %s/%s", em.To, em.Edge)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
