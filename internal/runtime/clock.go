package runtime

import (
	"sync/atomic"
	"time"
)

// Clock is the runtime's only source of wall time. Every timing read on
// the engine's execution paths — ingest timestamps for latency, lag
// sampling, busy-time accounting — goes through it, so a substrate (or a
// test) can substitute virtual time and make every timing-dependent
// behaviour deterministic and fast-forwardable. Event time (tuple
// timestamps, epochs, windows) is independent of the Clock: it always
// comes from the tuples themselves.
type Clock interface {
	// Now returns the current time in nanoseconds.
	Now() int64
}

// wallClock reads the real time; the default on every substrate except
// the simulation substrate.
type wallClock struct{}

func (wallClock) Now() int64 { return time.Now().UnixNano() }

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
