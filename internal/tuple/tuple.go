package tuple

import (
	"fmt"
	"strings"
	"time"
)

// Time is an event timestamp in nanoseconds since an arbitrary epoch.
// Logical workloads may use small integers; wall-clock workloads use
// time.Time.UnixNano values. The zero Time is the stream origin.
type Time int64

// Duration mirrors time.Duration semantics on the Time axis.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-o.
func (t Time) Sub(o Time) Duration { return Duration(t - o) }

// EventTime is the unqualified name of the event-time pseudo-attribute the
// engine appends to every ingested tuple ("R.τ"): the tuple's own
// timestamp as an Int, so per-relation window checks work on joined
// tuples. It is not a catalog attribute.
const EventTime = "τ"

// Schema names the columns of a tuple. Attribute names are qualified with
// their relation ("R.a", "lineitem.l_orderkey"). Schemas are immutable
// after construction and shared between all tuples of a relation.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema from qualified attribute names. Duplicate
// names panic: they indicate a query-compilation bug, not bad data.
func NewSchema(names ...string) *Schema {
	s := &Schema{names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := s.index[n]; dup {
			panic(fmt.Sprintf("tuple: duplicate attribute %q in schema", n))
		}
		s.index[n] = i
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.names) }

// Names returns the attribute names in declaration order. The caller must
// not mutate the returned slice.
func (s *Schema) Names() []string { return s.names }

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Positions resolves each name to its column position (-1 if absent).
// Probe-plan compilation uses it to turn name-keyed predicate lookups
// into positional slice accesses.
func (s *Schema) Positions(names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.Index(n)
	}
	return out
}

// Concat returns a new schema holding s's attributes followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	names := make([]string, 0, len(s.names)+len(o.names))
	names = append(names, s.names...)
	names = append(names, o.names...)
	return NewSchema(names...)
}

// String renders the schema as "(a, b, c)".
func (s *Schema) String() string { return "(" + strings.Join(s.names, ", ") + ")" }

// Tuple is a flat record: a schema, one value per attribute, and an event
// timestamp. Joined tuples are concatenations; their timestamp is the
// latest input timestamp (the time the join result exists, cf. Fig. 1 of
// the paper where q1's result is produced at τ1 when the last tuple
// arrives).
type Tuple struct {
	Schema *Schema
	Values []Value
	TS     Time
}

// New builds a tuple, panicking on arity mismatch (a compile-time style
// bug, not a data error).
func New(s *Schema, ts Time, values ...Value) *Tuple {
	if len(values) != s.Len() {
		panic(fmt.Sprintf("tuple: %d values for schema of %d attributes", len(values), s.Len()))
	}
	return &Tuple{Schema: s, Values: values, TS: ts}
}

// Clone returns a copy of t that owns its values (results are recycled).
func (t *Tuple) Clone() *Tuple {
	return &Tuple{Schema: t.Schema, Values: append([]Value(nil), t.Values...), TS: t.TS}
}

// At returns the value at the given column position. It is the
// fast-path accessor for compiled probe plans, which resolve attribute
// names to positions once per schema instead of per tuple; the caller
// must have obtained i from this tuple's schema.
func (t *Tuple) At(i int) Value { return t.Values[i] }

// Get returns the value of the named attribute and whether it exists.
func (t *Tuple) Get(name string) (Value, bool) {
	i := t.Schema.Index(name)
	if i < 0 {
		return Value{}, false
	}
	return t.Values[i], true
}

// MustGet returns the value of the named attribute, panicking if absent.
func (t *Tuple) MustGet(name string) Value {
	v, ok := t.Get(name)
	if !ok {
		panic(fmt.Sprintf("tuple: attribute %q not in schema %v", name, t.Schema))
	}
	return v
}

// MemSize estimates the in-memory footprint in bytes (values plus slice
// and struct headers), used for store memory accounting (Fig. 7c).
func (t *Tuple) MemSize() int {
	n := 48 // struct + slice header + schema pointer
	for _, v := range t.Values {
		n += v.MemSize()
	}
	return n
}

// String renders the tuple for logs: "[ts=5 R.a=1 R.b=x]".
func (t *Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[ts=%d", int64(t.TS))
	for i, n := range t.Schema.Names() {
		fmt.Fprintf(&b, " %s=%s", n, t.Values[i])
	}
	b.WriteByte(']')
	return b.String()
}
