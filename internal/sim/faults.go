package sim

import (
	"strings"

	"clash/internal/runtime"
)

// Fault perturbs a scenario deterministically: given the same scenario
// and seeds, an injected fault fires at the same points in every run,
// so a failure it provokes is replayed exactly. A fault may veto
// scheduler picks (task-level faults) and/or rewrite the delivery order
// of the source stream (source-level faults).
type Fault interface {
	// Stall is consulted before each dispatch; returning true vetoes
	// the pick (the task stays runnable). Must be a deterministic
	// function of the event.
	Stall(ev runtime.SimEvent) bool
	// Deliver rewrites the source stream's delivery order (timestamps
	// and tuple contents are never changed — only when each tuple is
	// offered to the engine).
	Deliver(ins []runtime.Ingestion) []runtime.Ingestion
	// Panic is consulted on each dispatch; returning true makes the
	// picked task panic before it touches any state, exercising the
	// supervisor's recover-and-restart path. Must be a deterministic
	// function of the event.
	Panic(ev runtime.SimEvent) bool
}

// nopFault provides no-op defaults for embedding.
type nopFault struct{}

func (nopFault) Stall(runtime.SimEvent) bool                         { return false }
func (nopFault) Deliver(ins []runtime.Ingestion) []runtime.Ingestion { return ins }
func (nopFault) Panic(runtime.SimEvent) bool                         { return false }

// TaskStall freezes matching store tasks on a deterministic cadence:
// through step Until, every Every-th pick of a matching task is vetoed.
// It models a slow or pausing partition (GC stall, noisy neighbour)
// without breaking exactness — queued messages wait, nothing is lost.
type TaskStall struct {
	nopFault
	// StorePrefix selects the victim store(s) by ID prefix ("" = all).
	StorePrefix string
	// Part selects one partition (-1 = all).
	Part int
	// Every vetoes one in Every picks (default 2).
	Every uint64
	// Until stops the fault after this scheduler step (0 = step 512).
	Until uint64
}

func (f TaskStall) Stall(ev runtime.SimEvent) bool {
	every, until := f.Every, f.Until
	if every == 0 {
		every = 2
	}
	if until == 0 {
		until = 512
	}
	if ev.Step >= until || ev.Step%every != 0 {
		return false
	}
	if f.StorePrefix != "" && !strings.HasPrefix(string(ev.Store), f.StorePrefix) {
		return false
	}
	if f.Part >= 0 && ev.Part != f.Part {
		return false
	}
	return true
}

// TaskPanic makes matching store tasks panic on a deterministic
// cadence: through step Until, every Every-th pick of a matching task
// dies before touching state. The supervisor (runtime/supervise.go)
// recovers the panic, resets the task's volatile caches, and redelivers
// the message, so a surviving run is still exact — the fault proves the
// restart path preserves results, not merely that the process lives.
// Keep Every above the restart budget's reach (consecutive panics of
// one task exhaust the supervisor's restart budget of 3 and fail the
// engine — that path is tested directly in the runtime package).
type TaskPanic struct {
	nopFault
	// StorePrefix selects the victim store(s) by ID prefix ("" = all).
	StorePrefix string
	// Part selects one partition (-1 = all).
	Part int
	// Every panics one in Every picks (default 7).
	Every uint64
	// Until stops the fault after this scheduler step (0 = step 256).
	Until uint64
}

func (f TaskPanic) Panic(ev runtime.SimEvent) bool {
	every, until := f.Every, f.Until
	if every == 0 {
		every = 7
	}
	if until == 0 {
		until = 256
	}
	if ev.Step >= until || ev.Step%every != 0 {
		return false
	}
	if f.StorePrefix != "" && !strings.HasPrefix(string(ev.Store), f.StorePrefix) {
		return false
	}
	if f.Part >= 0 && ev.Part != f.Part {
		return false
	}
	return true
}

// SourceHiccup holds a stretch of the source stream back and releases
// it as one burst: tuples [At, At+Hold) are delivered, in order, only
// after tuple At+Hold — the paper's changing-data-characteristics
// moment compressed into one scenario. Under flow control the burst
// starves the credit pool, driving the admission gate (block or shed)
// deterministically.
type SourceHiccup struct {
	nopFault
	// At is the index of the first held tuple.
	At int
	// Hold is how many tuples are held (default 64).
	Hold int
}

func (f SourceHiccup) Deliver(ins []runtime.Ingestion) []runtime.Ingestion {
	hold := f.Hold
	if hold <= 0 {
		hold = 64
	}
	if f.At < 0 || f.At >= len(ins) {
		return ins
	}
	end := f.At + hold
	if end > len(ins) {
		end = len(ins)
	}
	out := make([]runtime.Ingestion, 0, len(ins))
	out = append(out, ins[:f.At]...)
	// The release point: one tuple passes the hiccup, then the held
	// burst floods in behind it.
	if end < len(ins) {
		out = append(out, ins[end])
	}
	out = append(out, ins[f.At:end]...)
	if end+1 < len(ins) {
		out = append(out, ins[end+1:]...)
	}
	return out
}

// CreditStarvation shrinks the scenario's credit grant so the admission
// gate engages almost immediately — the bounded-queue overload shape at
// simulation scale. It is applied at configuration time (see
// Scenario.Run); it neither stalls picks nor reorders delivery.
type CreditStarvation struct {
	nopFault
	// Credits is the per-task grant to force (default 2).
	Credits int
}

func (f CreditStarvation) grant() int {
	if f.Credits <= 0 {
		return 2
	}
	return f.Credits
}
