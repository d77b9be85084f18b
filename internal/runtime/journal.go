package runtime

import (
	"clash/internal/topology"
	"clash/internal/tuple"
)

// Journal is the engine's write-ahead hook (internal/recovery implements
// it over a CRC-framed log). The engine calls it at the three points
// that determine the content of materialized state:
//
//   - LogIngest, before a source tuple takes any effect (write-ahead:
//     a tuple whose record is durable can always be replayed; a tuple
//     that fails to log is never processed);
//   - LogPrune, before a window-expiry cutoff is delivered to tasks;
//   - LogEvict, after the bounded-memory policy sheds an epoch (an
//     observed decision, recorded so recovery can verify that replayed
//     inserts re-make the same evictions).
//
// LogIngest and LogPrune run on the ingesting goroutine; LogEvict runs
// on task-execution goroutines — implementations must serialize
// internally. An error from LogIngest or LogPrune is terminal: the
// engine fails rather than diverge from its log. The vals slice aliases
// engine-owned memory and is valid only for the duration of the call —
// encode, don't retain.
type Journal interface {
	LogIngest(rel string, ts tuple.Time, vals []tuple.Value, seq uint64) error
	LogPrune(cut tuple.Time) error
	LogEvict(store topology.StoreID, part int, epoch int64, tuples int, seq uint64) error
}

// journalBox wraps the interface for atomic swap: recovery attaches the
// journal after replay (replayed traffic must not be re-logged), so the
// engine reads it through an atomic pointer instead of the config.
type journalBox struct{ j Journal }

// journal returns the active journal, or nil.
func (e *Engine) journal() Journal {
	if b := e.jrnl.Load(); b != nil {
		return b.j
	}
	return nil
}

// SetJournal attaches (or detaches, with nil) the engine's write-ahead
// journal. Recovery uses it to keep replay silent and then resume
// logging on the recovered engine. Attach it before the first Ingest
// to log every source tuple.
func (e *Engine) SetJournal(j Journal) {
	if j == nil {
		e.jrnl.Store(nil)
		return
	}
	e.jrnl.Store(&journalBox{j: j})
}
