package runtime

import (
	"sync/atomic"
	"time"
)

// VirtualClock is a manually advanced clock: time moves only when the
// simulation substrate dispatches a message or a test fast-forwards it.
// The zero value starts at nanosecond 0. Safe for concurrent use.
type VirtualClock struct {
	nanos atomic.Int64
}

// Now returns the current virtual time in nanoseconds.
func (c *VirtualClock) Now() int64 { return c.nanos.Load() }

// Advance moves virtual time forward by d (no-op for d <= 0).
func (c *VirtualClock) Advance(d time.Duration) {
	if d > 0 {
		c.nanos.Add(int64(d))
	}
}

// now is the runtime's only source of wall time. Every timing read on
// the engine's execution paths — ingest timestamps for latency, lag
// sampling, busy-time accounting — goes through it, so a substrate (or a
// test) can substitute virtual time and make every timing-dependent
// behaviour deterministic and fast-forwardable: it reads the engine's
// VirtualClock when it has one, the real time otherwise — as the
// monotonic nanoseconds since the engine was made, plus one so a real
// reading is never 0 (message.ingestWall 0 means "not stamped"). Only
// differences of its readings mean anything. Event time (tuple
// timestamps, epochs, windows) is independent of it: it always comes
// from the tuples themselves.
func (e *Engine) now() int64 {
	if e.vclock != nil {
		return e.vclock.Now()
	}
	return int64(time.Since(e.base)) + 1
}
