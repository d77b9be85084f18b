package runtime

// Task panic supervision (DESIGN.md §11). Every substrate funnels task
// execution through Engine.dispatch, so one recover() placed there
// isolates panics uniformly: a panicking store/probe/sink path on any
// substrate becomes a supervised task restart instead of a dead
// process. The supervisor's state machine per task:
//
//	healthy --panic--> restarting (redeliver after backoff)
//	restarting --dispatch completes--> healthy   (streak resets)
//	restarting --panic, streak > budget--> failed (engine fails with
//	                                               ErrTaskFailed)
//
// Restarting "from the last consistent state" is precise here because
// state mutations are message-granular: the interrupted message's
// partial effects are limited to its own handling frame (an insert that
// landed before the panic stays — redelivery re-runs the message, and
// exactness at the result level is restored by the recovery layer's
// replay/dedup, or never lost when the panic fired before any mutation,
// as injected TaskPanic faults do). The redelivered message re-enters
// the task's mailbox through the normal substrate send path, so seeded
// simulation schedules stay deterministic.

import (
	"errors"
	"fmt"
	"time"
)

// ErrTaskFailed is reported (wrapped, identifying the task) when a task
// exhausts its restart budget — the supervisor's analogue of
// ErrMemoryLimit: fail loudly rather than loop forever on a poison
// message.
var ErrTaskFailed = errors.New("runtime: task failed")

// errInjectedPanic is the payload of supervisor-test and sim-fault
// injected panics (SimConfig.Panic).
var errInjectedPanic = errors.New("runtime: injected panic")

// restartBudget bounds consecutive panics of one task before the
// engine fails with ErrTaskFailed. The redelivery delay after a panic
// starts at backoffBase and doubles per consecutive restart up to
// backoffCap; on the simulation substrate it advances virtual time
// instead of sleeping.
const (
	restartBudget = 3
	backoffBase   = time.Millisecond
	backoffCap    = 100 * time.Millisecond
)

// superviseTaskPanic is the recover() handler of dispatchGuarded: count
// the panic, and either redeliver the interrupted message after backoff
// or — once the task's consecutive-panic streak exhausts the budget —
// mark the task failed and fail the engine.
func (e *Engine) superviseTaskPanic(t *task, msg *message, r any) {
	e.metrics.recoveredPanics.Add(1)
	t.restartStreak++
	streak := t.restartStreak
	if streak > restartBudget {
		t.failed.Store(true)
		e.fail(fmt.Errorf("%w: %s/%d panicked %d time(s) in a row: %v",
			ErrTaskFailed, t.key.store, t.key.part, streak, r))
		return
	}
	e.metrics.taskRestarts.Add(1)
	t.restarts.Add(1)
	// Drop the task's volatile plan caches: a panic may have left them
	// half-updated, and they are pure caches — rebuilt on the next
	// message from the installed configs.
	t.resetVolatile()
	e.superviseBackoff(streak)
	// Redeliver the interrupted message through the normal substrate
	// send path (fresh in-flight and byte accounting, and a reference of
	// its own on its ingested tuple — dispatch releases the original's).
	// At-least-once within the process: the recovery layer's
	// sequence-number dedup restores exactly-once across it.
	m := *msg
	if m.in != nil {
		m.in.retain()
	}
	e.inflight.Add(1)
	if m.kind == kindData {
		e.queuedBytes.Add(m.memSize())
	}
	e.sub.send(t, m)
}

// superviseBackoff waits out the restart delay: exponential in the
// streak, capped, and virtual on the simulation substrate (sleeping a
// deterministic scheduler would couple schedules to the wall clock).
func (e *Engine) superviseBackoff(streak int) {
	d := backoffBase
	for i := 1; i < streak && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	if e.vclock != nil {
		e.vclock.Advance(d)
		return
	}
	time.Sleep(d)
}
