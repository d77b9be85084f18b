package main

import (
	"runtime"
	"time"
)

// lateAfter is how long after its due time an input may begin before
// it counts as late: the generator, not the system, was behind.
const lateAfter = int64(time.Millisecond)

// pacer sends on a fixed schedule whether or not the system keeps up
// (open loop): input k is due at start + k/rate, and it is never sent
// early. It waits by reading the clock in a loop: on the sandbox this
// benchmark was sized on, a sleep of a few microseconds returns after
// about a millisecond, which would turn the schedule into bursts. Each
// turn of the loop yields the processor, as a sleeping generator would:
// the sandbox has two cores for the generator and the cluster's two
// workers, and a generator that held one while it waited would leave the
// workers to take turns on the other. The price is a generator that
// burns the idle time, so CPU per tuple is never taken from a paced
// phase.
type pacer struct {
	now      func() int64 // the clock, ns; tests substitute a fake
	start    int64
	interval float64 // ns between inputs

	sent    int
	late    int   // inputs that began more than lateAfter after due
	lateMax int64 // worst lateness, ns
}

func newPacer(now func() int64, tuplesPerSecond float64) *pacer {
	return &pacer{now: now, start: now(), interval: 1e9 / tuplesPerSecond}
}

// next blocks until the next input is due and returns its due time,
// from which the input's results are timed: a wait the generator or a
// stalled system imposes on later inputs is charged to their latency.
func (p *pacer) next() (due int64) {
	due = p.start + int64(float64(p.sent)*p.interval)
	p.sent++
	now := p.now()
	for now < due {
		runtime.Gosched()
		now = p.now()
	}
	behind := now - due
	if behind > lateAfter {
		p.late++
	}
	if behind > p.lateMax {
		p.lateMax = behind
	}
	return due
}
