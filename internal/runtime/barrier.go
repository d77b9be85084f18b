package runtime

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The install barrier (DESIGN.md §14, "Re-optimizing beside the
// stream"). A re-optimization targets an epoch ahead of the stream —
// query churn the next one, an epoch re-plan the one after — so its
// solve need not stop ingest: it runs on its own goroutine, and the
// engine installs its result at the last moment that still changes
// nothing, just before it routes the first tuple of the target epoch.
// Results install in trigger order, exactly the order an inline solve
// would have installed them in, so Install's supersession rule sees the
// same sequence and every epoch runs under the same configuration.

// noPending is barrier.min with nothing pending: no epoch reaches it.
const noPending = math.MaxInt64

// pendingSolve is one scheduled re-optimization.
type pendingSolve struct {
	target  int64
	done    chan struct{} // closed when install is set
	install func() error  // the solve's result; runs at the barrier
}

// barrier queues scheduled re-optimizations in trigger order.
type barrier struct {
	// min is the smallest pending target epoch (noPending when none):
	// the one word Ingest reads per tuple.
	min atomic.Int64

	mu      sync.Mutex // guards pending
	pending []*pendingSolve

	// installing serializes installers: concurrent producers on the
	// flow substrate must not install one result twice.
	installing sync.Mutex
}

// schedule queues a re-optimization that targets epoch target. solve
// runs on its own goroutine once every earlier scheduled solve has
// finished, and returns the step that installs its result (or reports
// its failure); the barrier runs that step before the engine routes a
// tuple of epoch ≥ target, or when Drain, Stop or a checkpoint walk
// passes it. Solves thus run one at a time in trigger order and own
// whatever state they carry from one to the next.
func (e *Engine) schedule(target int64, solve func() (install func() error)) {
	b := &e.barrier
	p := &pendingSolve{target: target, done: make(chan struct{})}
	b.mu.Lock()
	var prev chan struct{}
	if n := len(b.pending); n > 0 {
		// Results leave the queue in order and only once finished, so
		// the tail is the latest solve that may still be running.
		prev = b.pending[n-1].done
	}
	b.pending = append(b.pending, p)
	if target < b.min.Load() {
		b.min.Store(target)
	}
	b.mu.Unlock()
	go func() {
		if prev != nil {
			<-prev
		}
		p.install = solve()
		close(p.done)
	}()
}

// installDue installs, in trigger order, every pending result up to the
// last one whose target is ≤ epoch, waiting for those still being
// solved. The barrier is the smallest pending target, not the queue
// head's: a churn result for e+1 queued behind an epoch re-plan for e+2
// installs both, in that order, as an inline solve would have. A failed
// solve fails the engine (its error is what the caller's Ingest returns
// and what Failure reports); results behind it, and any pending on a
// stopped engine, are awaited but not installed.
func (e *Engine) installDue(epoch int64) {
	b := &e.barrier
	b.installing.Lock()
	defer b.installing.Unlock()
	for {
		b.mu.Lock()
		due := false
		for _, p := range b.pending {
			if p.target <= epoch {
				due = true
				break
			}
		}
		if !due {
			b.mu.Unlock()
			return
		}
		p := b.pending[0]
		b.mu.Unlock()

		select {
		case <-p.done:
			e.metrics.solvesAhead.Add(1)
		default:
			start := time.Now()
			<-p.done
			e.metrics.barrierWait.Add(int64(time.Since(start)))
		}
		var err error
		if e.Failure() == nil && !e.stopped.Load() {
			err = p.install()
		}

		b.mu.Lock()
		b.pending[0] = nil
		b.pending = b.pending[1:]
		min := int64(noPending)
		for _, q := range b.pending {
			if q.target < min {
				min = q.target
			}
		}
		b.min.Store(min)
		b.mu.Unlock()
		if err != nil {
			e.fail(err)
		}
	}
}
