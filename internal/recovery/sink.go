package recovery

import (
	"sync"

	"clash/internal/runtime"
	"clash/internal/tuple"
)

// CommittedSink buffers join results until the next durable checkpoint
// commits them — the output-commit side of exactly-once recovery. A
// crash discards the uncommitted buffer; replaying the WAL suffix
// regenerates exactly those results, so downstream sees every result
// once: committed results are never replayed (their inputs sit at or
// before the checkpoint anchor) and uncommitted ones were never
// released.
//
// Register the sink's Commit with Manager.OnCommit. Results are keyed
// by their canonical rendering (runtime.CanonicalResult) and counted as
// a multiset, matching the repo's oracle comparisons.
type CommittedSink struct {
	mu        sync.Mutex
	pending   []string
	committed map[string]int
}

// NewCommittedSink returns an empty sink.
func NewCommittedSink() *CommittedSink {
	return &CommittedSink{committed: map[string]int{}}
}

// Add buffers one result (a runtime sink callback).
func (s *CommittedSink) Add(tp *tuple.Tuple) {
	key := runtime.CanonicalResult(tp)
	s.mu.Lock()
	s.pending = append(s.pending, key)
	s.mu.Unlock()
}

// Commit releases the buffered results downstream (here: into the
// committed multiset). Call it from Manager.OnCommit so the release
// point is exactly the durable-checkpoint point.
func (s *CommittedSink) Commit() {
	s.mu.Lock()
	for _, key := range s.pending {
		s.committed[key]++
	}
	s.pending = s.pending[:0]
	s.mu.Unlock()
}

// Committed returns a copy of the committed result multiset.
func (s *CommittedSink) Committed() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.committed))
	for k, v := range s.committed {
		out[k] = v
	}
	return out
}
