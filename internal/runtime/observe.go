package runtime

import (
	"fmt"
	"sync"

	"clash/internal/tuple"
)

// The statistics tap beside the stream (DESIGN.md §12). Config.Observer
// sees every ingested tuple, but not on the ingesting goroutine: Ingest
// appends the tuple to a batch, and a full batch goes over a bounded
// queue to the engine's statistics goroutine, which calls the Observer
// in the order the batches were filled. The statistics are read only at
// an epoch seal, at Drain and at Stop; each of them flushes the open
// batch and waits until the goroutine has observed it, so every tuple
// ingested before the call has been observed when it returns. On an
// engine that recycles its ingested tuples the observation holds a
// reference, released once the Observer has seen the tuple (DESIGN.md
// §7), so the pointer stays valid until the Observer returns — and no
// longer.

const (
	// observeBatch is how many observations Ingest hands over at once.
	observeBatch = 256
	// observeDepth is how many full batches may wait for the statistics
	// goroutine before Ingest waits for it: the tap's memory is bounded.
	observeDepth = 8
)

// observation is one ingested tuple waiting for the Observer, and the
// reference it holds on it (nil when the engine counts none).
type observation struct {
	rel string
	t   *tuple.Tuple
	ref *ingested
}

// tapBatch is one hand-over to the statistics goroutine. A flush carries
// ack, closed once everything queued up to and including it is observed.
type tapBatch struct {
	obs []observation
	ack chan struct{}
}

// observerTap runs Config.Observer on a goroutine of the engine's own.
type observerTap struct {
	fn   func(rel string, t *tuple.Tuple)
	fail func(error)

	// mu orders the hand-overs: sinks may re-enter Ingest from task
	// goroutines, and a batch must be queued in the order it was filled.
	mu      sync.Mutex
	cur     []observation // the open batch
	started bool          // the goroutine runs
	closed  bool          // Stop ended the goroutine; later tuples are dropped

	queue chan tapBatch
	free  chan []observation // observed batches, for reuse
	done  chan struct{}      // closed when the goroutine exits

	failed bool // the Observer panicked; owned by the goroutine
}

func newObserverTap(fn func(string, *tuple.Tuple), fail func(error)) *observerTap {
	return &observerTap{
		fn:    fn,
		fail:  fail,
		queue: make(chan tapBatch, observeDepth),
		free:  make(chan []observation, observeDepth+2),
		done:  make(chan struct{}),
	}
}

// observe queues one ingested tuple for the Observer, taking a
// reference on ref (when not nil) that run releases.
func (p *observerTap) observe(rel string, t *tuple.Tuple, ref *ingested) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if ref != nil {
		ref.retain()
	}
	if p.cur == nil {
		select {
		case p.cur = <-p.free:
		default:
			p.cur = make([]observation, 0, observeBatch)
		}
	}
	p.cur = append(p.cur, observation{rel: rel, t: t, ref: ref})
	if len(p.cur) == observeBatch {
		p.handOverLocked(tapBatch{obs: p.cur})
		p.cur = nil
	}
	p.mu.Unlock()
}

// handOverLocked queues a batch, starting the goroutine on first use; a
// full queue makes the caller wait. Callers hold p.mu.
func (p *observerTap) handOverLocked(b tapBatch) {
	if !p.started {
		p.started = true
		go p.run()
	}
	p.queue <- b
}

// flush returns once every tuple queued before the call is observed.
func (p *observerTap) flush() {
	p.mu.Lock()
	if p.closed || (!p.started && len(p.cur) == 0) {
		p.mu.Unlock()
		return
	}
	ack := make(chan struct{})
	p.handOverLocked(tapBatch{obs: p.cur, ack: ack})
	p.cur = nil
	p.mu.Unlock()
	<-ack
}

// close observes what is still queued and ends the goroutine.
func (p *observerTap) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if len(p.cur) > 0 {
		p.handOverLocked(tapBatch{obs: p.cur})
		p.cur = nil
	}
	p.closed = true
	started := p.started
	if started {
		close(p.queue)
	}
	p.mu.Unlock()
	if started {
		<-p.done
	}
}

// run is the statistics goroutine.
func (p *observerTap) run() {
	defer close(p.done)
	for b := range p.queue {
		p.observeAll(b.obs)
		for _, o := range b.obs {
			if o.ref != nil {
				o.ref.release()
			}
		}
		if b.obs != nil {
			clear(b.obs) // release the tuples
			select {
			case p.free <- b.obs[:0]:
			default:
			}
		}
		if b.ack != nil {
			close(b.ack)
		}
	}
}

// observeAll calls the Observer for each observation of a batch. A panic
// fails the engine, as a task that exhausts its restarts does, instead
// of killing the process from a goroutine the caller does not own;
// later observations are dropped, and flushes still return.
func (p *observerTap) observeAll(obs []observation) {
	if p.failed {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			p.failed = true
			p.fail(fmt.Errorf("runtime: statistics observer panicked: %v", r))
		}
	}()
	for _, o := range obs {
		p.fn(o.rel, o.t)
	}
}
