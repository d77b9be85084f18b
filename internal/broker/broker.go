// Package broker is an in-memory stand-in for the Kafka ingestion layer
// of the paper's experimental setup: named topics with ordered,
// offset-addressable records, merged by event time into the order a
// stream processor would observe them (DESIGN.md, substitution table).
package broker

import (
	"fmt"
	"sync"

	"clash/internal/tuple"
)

// Record is one message of a topic: a relation tuple with its event time.
type Record struct {
	Relation string
	TS       tuple.Time
	Vals     []tuple.Value
}

// Broker stores topics in memory. Safe for concurrent use.
type Broker struct {
	mu     sync.RWMutex
	topics map[string][]Record
}

// New returns an empty broker.
func New() *Broker { return &Broker{topics: map[string][]Record{}} }

// Append adds a record to the end of a topic (creating it on first use)
// and returns its offset.
func (b *Broker) Append(topic string, r Record) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.topics[topic] = append(b.topics[topic], r)
	return int64(len(b.topics[topic]) - 1)
}

// Len returns the number of records in a topic.
func (b *Broker) Len(topic string) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return int64(len(b.topics[topic]))
}

// Read returns up to max records starting at offset.
func (b *Broker) Read(topic string, offset int64, max int) ([]Record, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	recs, ok := b.topics[topic]
	if !ok {
		return nil, fmt.Errorf("broker: unknown topic %q", topic)
	}
	if offset < 0 || offset > int64(len(recs)) {
		return nil, fmt.Errorf("broker: offset %d out of range [0, %d]", offset, len(recs))
	}
	end := offset + int64(max)
	if end > int64(len(recs)) {
		end = int64(len(recs))
	}
	return recs[offset:end], nil
}

// Interleave merges several topics by event time into a single stream of
// records, the order a stream processor would observe them in. Ties
// break by topic name then offset.
func (b *Broker) Interleave(topics ...string) []Record {
	b.mu.RLock()
	defer b.mu.RUnlock()
	type cursor struct {
		name string
		recs []Record
		pos  int
	}
	var cs []cursor
	total := 0
	for _, t := range topics {
		recs := b.topics[t]
		cs = append(cs, cursor{name: t, recs: recs})
		total += len(recs)
	}
	out := make([]Record, 0, total)
	for len(out) < total {
		best := -1
		for i := range cs {
			if cs[i].pos >= len(cs[i].recs) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a, bb := cs[i].recs[cs[i].pos], cs[best].recs[cs[best].pos]
			if a.TS < bb.TS || (a.TS == bb.TS && cs[i].name < cs[best].name) {
				best = i
			}
		}
		out = append(out, cs[best].recs[cs[best].pos])
		cs[best].pos++
	}
	return out
}
