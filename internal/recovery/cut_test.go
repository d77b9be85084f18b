package recovery_test

// Tests of the checkpoint's two steps (DESIGN.md §11): the cut on the
// ingesting goroutine and the commit beside the stream.

import (
	"bytes"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clash/internal/recovery"
	"clash/internal/rng"
	"clash/internal/runtime"
	"clash/internal/tuple"
)

// pairWorkload is cluster-paced's: two two-way queries sharing S.
const pairWorkload = "q1: R(a) S(a)\nq2: S(a) T(a)"

// pairEngine starts a journaled engine on the pair workload.
func pairEngine(tb testing.TB, cfg runtime.Config, ckptEvery int) (*runtime.Engine, *recovery.Manager, *recovery.MemStorage) {
	tb.Helper()
	_, cat, topo := buildShared(tb, pairWorkload)
	cfg.Catalog = cat
	eng := runtime.New(cfg)
	if err := eng.Install(topo, 0); err != nil {
		tb.Fatal(err)
	}
	st := recovery.NewMemStorage()
	mgr, err := recovery.NewManager(st, recovery.Config{CheckpointEvery: ckptEvery})
	if err != nil {
		tb.Fatal(err)
	}
	eng.SetJournal(mgr)
	mgr.Bind(eng)
	return eng, mgr, st
}

// pairStream feeds R, S and T in turn at event times 1, 2, …, with keys
// drawn from keys values; every fifth R carries a string key, so the
// columns hold strings too.
type pairStream struct {
	r    *rng.RNG
	keys int64
	i    int
}

func (p *pairStream) next() (string, tuple.Time, tuple.Value) {
	p.i++
	rel := [...]string{"R", "S", "T"}[p.i%3]
	v := tuple.IntValue(p.r.Int64n(p.keys))
	if rel == "R" && p.i%5 == 0 {
		v = tuple.StringValue("k" + strconv.FormatInt(p.r.Int64n(p.keys), 10))
	}
	return rel, tuple.Time(p.i), v
}

// ingestPruned ingests n tuples of the stream, pruning the window at
// every epoch boundary the way the adaptive controller does, and calls
// after(i) after each ingest.
func ingestPruned(tb testing.TB, eng *runtime.Engine, p *pairStream, n int, window, epochLen tuple.Time, after func(i int)) {
	tb.Helper()
	for i := 0; i < n; i++ {
		rel, ts, v := p.next()
		if ts%epochLen == 0 && ts > window {
			eng.PruneBefore(ts - window)
		}
		if err := eng.Ingest(rel, ts, v); err != nil {
			tb.Fatal(err)
		}
		if after != nil {
			after(i)
		}
	}
}

// TestCheckpointSteadyStateAllocs pins a due checkpoint — the cut plus
// the commit — on a columnar engine to a constant number of objects,
// whatever the rows it carries: the cut copies the dirty segments into
// buffers the manager keeps, and the commit fingerprints and encodes
// into buffers it keeps. A record built from nil buffers, or a hasher
// per segment, allocates more as the rows grow.
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	const window, epochLen = 4000, 250
	var perCkpt []float64
	for _, every := range []int{64, 1024} {
		eng, mgr, _ := pairEngine(t, runtime.Config{Substrate: runtime.SubstrateSynchronous, StateBackend: runtime.BackendColumnar,
			DefaultWindow: window, EpochLength: epochLen}, every)
		p := &pairStream{r: rng.New(1), keys: 5000}
		checkpoint := func() {
			if err := mgr.MaybeCheckpoint(); err != nil {
				t.Fatal(err)
			}
		}
		// Warm up over windows, so every buffer has met its steady size;
		// a whole number of cadences, so the measured checkpoints fall due
		// where the loop below expects them.
		ingestPruned(t, eng, p, (3*window/every+1)*every, window, epochLen, func(int) { checkpoint() })
		var ms goruntime.MemStats
		var mallocs uint64
		ckpts := 0
		before := mgr.Stats().Checkpoints
		ingestPruned(t, eng, p, 32*every, window, epochLen, func(i int) {
			if (i+1)%every != 0 {
				checkpoint()
				return
			}
			goruntime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			checkpoint()
			goruntime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - m0
			ckpts++
		})
		if got := mgr.Stats().Checkpoints - before; got != ckpts {
			t.Fatalf("every %d: %d checkpoints measured, %d taken — the cadence drifted off the measured ingests", every, ckpts, got)
		}
		avg := float64(mallocs) / float64(ckpts)
		perCkpt = append(perCkpt, avg)
		t.Logf("a checkpoint every %d ingests: %.2f objects per checkpoint (%d checkpoints)", every, avg, ckpts)
		eng.Stop()
	}
	for i, every := range []int{64, 1024} {
		if perCkpt[i] > 2 {
			t.Errorf("a checkpoint every %d ingests allocates %.2f objects, want at most 2 whatever its rows", every, perCkpt[i])
		}
	}
}

// TestCutRecordMatchesSynchronousEncode: the record a cut commits —
// encoded from the cut's copies, into the manager's reused buffers,
// through its schema cache — is byte for byte the record of the same
// walk encoded as the checkpoint used to be: from the segments read in
// place, into fresh buffers. Every checkpoint of a stream that prunes,
// on both layouts.
func TestCutRecordMatchesSynchronousEncode(t *testing.T) {
	const window, epochLen = 600, 50
	for _, backend := range []runtime.StateBackendKind{runtime.BackendContainer, runtime.BackendColumnar} {
		eng, mgr, st := pairEngine(t, runtime.Config{Substrate: runtime.SubstrateSynchronous, StateBackend: backend,
			DefaultWindow: window, EpochLength: epochLen}, 1<<30)
		p := &pairStream{r: rng.New(2), keys: 40}
		records := 0
		ingestPruned(t, eng, p, 4000, window, epochLen, func(i int) {
			if i%97 != 96 {
				return
			}
			views, err := eng.Segments(true)
			if err != nil {
				t.Fatal(err)
			}
			prev, _ := st.Load(recovery.StreamCheckpoint)
			if err := mgr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			all, _ := st.Load(recovery.StreamCheckpoint)
			got := all[len(prev):]
			frames, _ := runtime.ScanFrames(got)
			if len(frames) != 1 {
				t.Fatalf("%s: the checkpoint appended %d frames", backend, len(frames))
			}
			rec, err := runtime.DecodeStateRecord(frames[0].Payload)
			if err != nil {
				t.Fatal(err)
			}
			// The same walk, encoded the old way: the segments the record
			// carries, read in place.
			want := *rec
			want.Segs = nil
			for _, sg := range rec.Segs {
				for _, v := range views {
					if v.Key == sg.Key {
						want.Segs = append(want.Segs, v)
					}
				}
			}
			if len(want.Segs) != len(rec.Segs) {
				t.Fatalf("%s: the record carries %d segments the walk before the cut did not hold", backend, len(rec.Segs)-len(want.Segs))
			}
			if exp := runtime.AppendFrame(nil, runtime.AppendStateRecord(nil, &want)); !bytes.Equal(got, exp) {
				t.Fatalf("%s: checkpoint %d: %d record bytes, the synchronous encode of the same walk %d, or different bytes", backend, records, len(got), len(exp))
			}
			if len(rec.Segs) > 0 && len(rec.Drops) > 0 {
				records++
			}
		})
		if records < 5 {
			t.Fatalf("%s: only %d records carried both segments and drops — test vacuous", backend, records)
		}
		eng.Stop()
	}
}

// anchoredSink is a CommittedSink that checks, at every Release, that
// nothing it has released came from an input past the cut it was
// marked at: a result's input is its newest tuple, and on this stream
// event time equals sequence number.
type anchoredSink struct {
	*recovery.CommittedSink
	t       *testing.T
	mu      sync.Mutex
	markSeq uint64
	marks   int
}

func (s *anchoredSink) Mark(seq uint64) {
	s.mu.Lock()
	s.markSeq = seq
	s.marks++
	s.mu.Unlock()
	s.CommittedSink.Mark(seq)
}

func (s *anchoredSink) Release() {
	s.CommittedSink.Release()
	s.mu.Lock()
	seq := s.markSeq
	s.mu.Unlock()
	for key := range s.Committed() {
		if in := newestInput(key); in > seq {
			s.t.Errorf("released %s, whose input %d is past the cut at %d", key, in, seq)
		}
	}
}

// newestInput is a canonical result's largest event time (its τ cells).
func newestInput(key string) uint64 {
	var newest uint64
	for _, part := range strings.Split(key, "|") {
		if _, v, ok := strings.Cut(part, tuple.EventTime+"="); ok {
			if n, err := strconv.ParseUint(v, 10, 64); err == nil && n > newest {
				newest = n
			}
		}
	}
	return newest
}

// TestCommittedSinkReleasesOnlyToTheCut runs a journaled flow-substrate
// engine whose checkpoints commit beside the stream — results of later
// ingests keep arriving between a cut and its release — and checks at
// every release that the sink released no result whose input lies past
// the cut, and at the end, after Close, that it released every result
// exactly once.
func TestCommittedSinkReleasesOnlyToTheCut(t *testing.T) {
	const window, epochLen = 300, 30
	cfg := runtime.Config{Substrate: runtime.SubstrateFlow, Flow: runtime.FlowConfig{Workers: 2}, StateBackend: runtime.BackendColumnar,
		DefaultWindow: window, EpochLength: epochLen}
	eng, mgr, _ := pairEngine(t, cfg, 16)
	sinks := map[string]*anchoredSink{}
	for _, q := range []string{"q1", "q2"} {
		s := &anchoredSink{CommittedSink: recovery.NewCommittedSink(), t: t}
		sinks[q] = s
		eng.OnResult(q, s.Add)
		mgr.OnCommit(s)
	}
	const n = 3000
	ingestPruned(t, eng, &pairStream{r: rng.New(3), keys: 12}, n, window, epochLen, func(int) {
		if err := mgr.MaybeCheckpoint(); err != nil {
			t.Fatal(err)
		}
	})
	eng.Drain()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	eng.Stop()

	oracle, _, _ := pairEngine(t, runtime.Config{Substrate: runtime.SubstrateSynchronous, StateBackend: runtime.BackendColumnar,
		DefaultWindow: window, EpochLength: epochLen}, 1<<30)
	want := map[string]*runtime.CollectSink{}
	for _, q := range []string{"q1", "q2"} {
		want[q] = runtime.NewCollectSink()
		oracle.OnResult(q, want[q].Add)
	}
	ingestPruned(t, oracle, &pairStream{r: rng.New(3), keys: 12}, n, window, epochLen, nil)
	oracle.Drain()
	oracle.Stop()
	for q, s := range sinks {
		if s.marks < 2 {
			t.Fatalf("%s: %d cuts — test vacuous", q, s.marks)
		}
		got, exp := s.Committed(), want[q].Results()
		if len(exp) == 0 {
			t.Fatalf("%s: the oracle produced no results — test vacuous", q)
		}
		if len(got) != len(exp) {
			t.Errorf("%s: %d distinct results released, the oracle has %d", q, len(got), len(exp))
		}
		for k, c := range exp {
			if got[k] != c {
				t.Errorf("%s: %s released %d times, the oracle has it %d", q, k, got[k], c)
			}
		}
	}
}

// failingCheckpoints is a storage whose checkpoint stream refuses
// appends.
type failingCheckpoints struct{ *recovery.MemStorage }

var errNoSpace = errorString("no space left on the checkpoint device")

type errorString string

func (e errorString) Error() string { return string(e) }

func (f failingCheckpoints) Append(stream string, b []byte) error {
	if stream == recovery.StreamCheckpoint {
		return errNoSpace
	}
	return f.MemStorage.Append(stream, b)
}

// TestFailedCommitFailsTheEngine: a checkpoint whose record does not
// append fails the engine, and the next Ingest, MaybeCheckpoint,
// Checkpoint and Close all return that error; the commit hooks marked at
// the cut are never released.
func TestFailedCommitFailsTheEngine(t *testing.T) {
	_, cat, topo := buildShared(t, pairWorkload)
	eng := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateFlow, StateBackend: runtime.BackendColumnar})
	defer eng.Stop()
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	mgr, err := recovery.NewManager(failingCheckpoints{recovery.NewMemStorage()}, recovery.Config{CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetJournal(mgr)
	mgr.Bind(eng)
	sink := recovery.NewCommittedSink()
	eng.OnResult("q1", sink.Add)
	mgr.OnCommit(sink)
	p := &pairStream{r: rng.New(4), keys: 3}
	var ingestErr error
	for i := 0; i < 200 && ingestErr == nil; i++ {
		rel, ts, v := p.next()
		if ingestErr = eng.Ingest(rel, ts, v); ingestErr == nil {
			ingestErr = mgr.MaybeCheckpoint()
		}
		if i == 100 {
			mgr.Wait() // the commit beside the stream has failed by now
		}
	}
	isNoSpace := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), string(errNoSpace)) {
			t.Errorf("%s returned %v, want the failed append's error", what, err)
		}
	}
	isNoSpace("the ingest loop", ingestErr)
	isNoSpace("Engine.Failure", eng.Failure())
	rel, ts, v := p.next()
	isNoSpace("Ingest", eng.Ingest(rel, ts, v))
	isNoSpace("MaybeCheckpoint", mgr.MaybeCheckpoint())
	isNoSpace("Checkpoint", mgr.Checkpoint())
	isNoSpace("Close", mgr.Close())
	if got := sink.Committed(); len(got) != 0 {
		t.Errorf("%d results released although no checkpoint was ever durable", len(got))
	}
}

// BenchmarkCheckpointFrontDoor times what a due checkpoint costs the
// ingesting goroutine at cluster-paced's shape — two two-way queries on
// the columnar store and the flow substrate with one worker, a window
// of 20 000 event-time units in 16 epochs, keys mostly missing, a
// checkpoint every 4 096 ingests. One op is the ingest that makes the
// checkpoint due and the MaybeCheckpoint after it; the 4 095 ingests
// before them, and the drain of the worker's backlog they leave, are
// untimed — that backlog is the stream's work, which a cut waits for
// as the checkpoint it replaces did.
func BenchmarkCheckpointFrontDoor(b *testing.B) {
	const window, epochLen, every = 20_000, 1250, 4096
	eng, mgr, _ := pairEngine(b, runtime.Config{Substrate: runtime.SubstrateFlow, Flow: runtime.FlowConfig{Workers: 1},
		StateBackend: runtime.BackendColumnar, DefaultWindow: time.Duration(window), EpochLength: time.Duration(epochLen)}, every)
	defer eng.Stop()
	p := &pairStream{r: rng.New(5), keys: 100_000}
	ingestPruned(b, eng, p, 2*window, window, epochLen, func(int) {
		if err := mgr.MaybeCheckpoint(); err != nil {
			b.Fatal(err)
		}
	})
	mgr.Stats() // settle the last warm-up checkpoint
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		ingestPruned(b, eng, p, every-1, window, epochLen, nil)
		mgr.Stats() // waits for a commit still in flight, so the next one is due
		eng.Drain()
		b.StartTimer()
		ingestPruned(b, eng, p, 1, window, epochLen, func(int) {
			if err := mgr.MaybeCheckpoint(); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.StopTimer()
	if s := mgr.Stats(); s.Checkpoints < b.N {
		b.Fatalf("%d checkpoints over %d due ones", s.Checkpoints, b.N)
	}
}
