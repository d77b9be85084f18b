package recovery

import (
	"sync"

	"clash/internal/runtime"
	"clash/internal/tuple"
)

// CommittedSink buffers join results until a durable checkpoint
// commits them — the output-commit side of exactly-once recovery. A
// crash discards the uncommitted buffer; replaying the WAL suffix
// regenerates exactly those results, so downstream sees every result
// once: committed results are never replayed (their inputs sit at or
// before the checkpoint anchor) and uncommitted ones were never
// released.
//
// It is a Committer in two phases: Mark (at a checkpoint's cut)
// remembers how many results are pending, and Release (once that
// checkpoint is durable) releases exactly those; results that arrive
// after the cut wait for the next checkpoint. Register it with
// Manager.OnCommit. Results are keyed by their canonical rendering
// (runtime.CanonicalResult) and counted as a multiset, matching the
// repo's oracle comparisons.
type CommittedSink struct {
	mu        sync.Mutex
	pending   []string
	marked    int    // pending[:marked] are covered by the cut in flight
	markSeq   uint64 // that cut's sequence number
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

// Mark implements Committer: every result pending now is covered by the
// checkpoint cut at seq.
func (s *CommittedSink) Mark(seq uint64) {
	s.mu.Lock()
	s.marked, s.markSeq = len(s.pending), seq
	s.mu.Unlock()
}

// Release implements Committer: the marked results go downstream (here:
// into the committed multiset).
func (s *CommittedSink) Release() {
	s.mu.Lock()
	s.releaseMarked()
	s.mu.Unlock()
}

func (s *CommittedSink) releaseMarked() {
	for _, key := range s.pending[:s.marked] {
		s.committed[key]++
	}
	n := copy(s.pending, s.pending[s.marked:])
	clear(s.pending[n:])
	s.pending, s.marked = s.pending[:n], 0
}

// Resolve settles, after a crash, the results a cut marked whose
// release the crash pre-empted: anchorSeq is the sequence number of the
// checkpoint chain recovery composed (Stats.AnchorSeq). When that chain
// covers the cut, the cut's record is durable and replay regenerates
// nothing at or before it, so the marked results are released; when it
// does not, replay regenerates them and they are dropped. Results past
// the mark are dropped either way — replay regenerates them. A sink
// that must survive a crash between a record's append and its Release
// keeps its marked results durable and resolves them this way.
func (s *CommittedSink) Resolve(anchorSeq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.marked > 0 && s.markSeq <= anchorSeq {
		s.releaseMarked()
	}
	clear(s.pending)
	s.pending, s.marked = s.pending[:0], 0
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
