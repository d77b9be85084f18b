package runtime

// Flow-control tests (DESIGN.md §8). That the result multiset does not
// depend on the substrate is TestExactnessMatrix's (exactness_test.go);
// these cover the flow substrate's overload behaviour: bounded
// queueing, graceful degradation (block and shed), buffering to death
// under a grant the run cannot exhaust, and the pressure gauges.

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/tuple"
)

func sortedResults(s *CollectSink) []string {
	res := s.Results()
	out := make([]string, 0, len(res))
	for k, n := range res {
		out = append(out, fmt.Sprintf("%s×%d", k, n))
	}
	sort.Strings(out)
	return out
}

// overloadFixture builds an engine over a two-way join with slow
// consumers (OverheadLoops) so a free-running producer outruns the
// topology — the Fig. 8a overload shape at test scale.
func overloadFixture(t *testing.T, cfg Config) (*Engine, *query.Catalog) {
	t.Helper()
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	est := flatEstimates([]string{"R", "S"}, 100)
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 2}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = cat
	eng := New(cfg)
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	eng.OnResult("q1", func(*tuple.Tuple) {})
	return eng, cat
}

// driveOverload ingests a sustained stream, pruning the window
// periodically, and returns the peak queued-message pressure plus any
// terminal error.
func driveOverload(eng *Engine, cat *query.Catalog, n int, window tuple.Time) (peakQueued int64, ingestErr error) {
	ins := randomStream(cat, n, 16, 5)
	for i, in := range ins {
		if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			return peakQueued, err
		}
		if i%64 == 0 {
			if p := eng.Pressure(); p.QueuedMessages > peakQueued {
				peakQueued = p.QueuedMessages
			}
		}
		if window > 0 && i%200 == 199 {
			eng.PruneBefore(eng.Watermark() - window)
		}
	}
	return peakQueued, nil
}

// unexhaustible is a per-task credit grant no test stream can use up:
// admission never gates, so overloaded workers buffer without bound —
// the paper's Fig. 8a configuration of the flow substrate.
const unexhaustible = 1 << 30

// TestFlowBoundsQueueingUnderOverload: the same overload stream under an
// unexhaustible credit grant accumulates a deep backlog, while a small
// grant's admission gate keeps the queue near the credit bound.
func TestFlowBoundsQueueingUnderOverload(t *testing.T) {
	const loops = 20000
	unb, cat := overloadFixture(t, Config{
		OverheadLoops: loops,
		Substrate:     SubstrateFlow,
		Flow:          FlowConfig{MailboxCredits: unexhaustible},
	})
	peakUnbounded, err := driveOverload(unb, cat, 3000, 0)
	unb.Drain()
	unb.Stop()
	if err != nil {
		t.Fatalf("unexhaustible-grant run failed: %v", err)
	}

	flw, cat := overloadFixture(t, Config{
		OverheadLoops: loops,
		Substrate:     SubstrateFlow,
		Flow:          FlowConfig{MailboxCredits: 16},
	})
	peakFlow, err := driveOverload(flw, cat, 3000, 0)
	flw.Drain()
	flw.Stop()
	if err != nil {
		t.Fatalf("flow run failed: %v", err)
	}

	if peakUnbounded < 4*peakFlow || peakUnbounded < 100 {
		t.Errorf("flow control did not bound queueing: unexhaustible-grant peak %d vs 16-credit peak %d",
			peakUnbounded, peakFlow)
	}
	t.Logf("peak queued messages: unexhaustible grant=%d 16 credits=%d", peakUnbounded, peakFlow)
}

// TestFlowSurvivesWhereUnboundedDies is the overload-survival core: a
// memory budget that buffering under an unexhaustible credit grant must
// blow through (Fig. 8a death) while a small grant's backpressure stays
// within it — under BlockOnOverload without losing a single result,
// under ShedOnOverload with every offered tuple either admitted or
// counted as shed.
func TestFlowSurvivesWhereUnboundedDies(t *testing.T) {
	const (
		loops  = 50000
		budget = 256 << 10
		n      = 8000
		window = tuple.Time(50)
	)
	// Reference result count from the exact synchronous substrate.
	ref, cat := overloadFixture(t, Config{Substrate: SubstrateSynchronous, DefaultWindow: time.Duration(window)})
	if _, err := driveOverload(ref, cat, n, window); err != nil {
		t.Fatalf("synchronous reference failed: %v", err)
	}
	ref.Drain()
	wantResults := ref.Metrics().Snapshot().Results
	ref.Stop()
	if wantResults == 0 {
		t.Fatal("reference produced no results — test vacuous")
	}

	unb, cat := overloadFixture(t, Config{
		OverheadLoops:    loops,
		DefaultWindow:    time.Duration(window),
		MemoryLimitBytes: budget,
		Substrate:        SubstrateFlow,
		Flow:             FlowConfig{MailboxCredits: unexhaustible},
	})
	_, err := driveOverload(unb, cat, n, window)
	unb.Stop()
	if !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("unexhaustible grant survived the %d-byte budget (err=%v) — overload scenario too weak", budget, err)
	}

	flw, cat := overloadFixture(t, Config{
		OverheadLoops:    loops,
		DefaultWindow:    time.Duration(window),
		MemoryLimitBytes: budget,
		Substrate:        SubstrateFlow,
		Flow:             FlowConfig{MailboxCredits: 16},
	})
	if _, err := driveOverload(flw, cat, n, window); err != nil {
		t.Fatalf("flow substrate died under the same budget: %v", err)
	}
	flw.Drain()
	m := flw.Metrics().Snapshot()
	flw.Stop()
	if m.Ingested != int64(n) {
		t.Errorf("flow substrate admitted %d of %d tuples under BlockOnOverload", m.Ingested, n)
	}
	if m.ShedTuples != 0 {
		t.Errorf("BlockOnOverload shed %d tuples", m.ShedTuples)
	}
	if m.Results != wantResults {
		t.Errorf("flow substrate produced %d results, exact reference %d", m.Results, wantResults)
	}

	shed, cat := overloadFixture(t, Config{
		OverheadLoops:    loops,
		DefaultWindow:    time.Duration(window),
		MemoryLimitBytes: budget,
		Substrate:        SubstrateFlow,
		Flow:             FlowConfig{MailboxCredits: 16, Policy: ShedOnOverload},
	})
	if _, err := driveOverload(shed, cat, n, window); err != nil {
		t.Fatalf("shedding flow substrate died under the same budget: %v", err)
	}
	shed.Drain()
	m = shed.Metrics().Snapshot()
	shed.Stop()
	if m.ShedTuples == 0 {
		t.Error("ShedOnOverload dropped nothing under overload")
	}
	if m.Ingested+m.ShedTuples != int64(n) {
		t.Errorf("ShedOnOverload admitted %d + shed %d != offered %d", m.Ingested, m.ShedTuples, n)
	}
}

// TestMeasuredProbesMatchAcrossSubstrates: MeasuredCosts meters every
// probed tuple once per probe rule, whether its message is dispatched
// synchronously or drained from a backed-up flow mailbox. A slow single
// worker lets mailboxes back up; the per-task probe counts must equal
// the synchronous engine's.
func TestMeasuredProbesMatchAcrossSubstrates(t *testing.T) {
	const n = 4000
	gauges := func(cfg Config) []TaskGauge {
		cfg.MeasuredCosts = true
		eng, cat := overloadFixture(t, cfg)
		defer eng.Stop()
		if _, err := driveOverload(eng, cat, n, 0); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
		return eng.TaskGauges()
	}
	want := gauges(Config{Substrate: SubstrateSynchronous})
	got := gauges(Config{Substrate: SubstrateFlow, OverheadLoops: 2000, Flow: FlowConfig{Workers: 1}})
	if len(got) != len(want) {
		t.Fatalf("flow engine has %d tasks, synchronous %d", len(got), len(want))
	}
	var total int64
	for i := range want {
		if got[i].ProbeTuples != want[i].ProbeTuples {
			t.Errorf("task %s/%d metered %d probe tuples on the flow substrate, %d synchronously",
				want[i].Store, want[i].Part, got[i].ProbeTuples, want[i].ProbeTuples)
		}
		if got[i].ProbeTuples > 0 && got[i].ProbeNanos == 0 {
			t.Errorf("task %s/%d metered probe tuples but no probe time", got[i].Store, got[i].Part)
		}
		total += want[i].ProbeTuples
	}
	if total == 0 {
		t.Fatal("no probe tuples metered — test vacuous")
	}
}

// TestFlowShedPolicy: with ShedOnOverload the engine stays live and
// lossy — tuples are dropped at the admission gate, counted, and never
// half-processed.
func TestFlowShedPolicy(t *testing.T) {
	const n = 4000
	eng, cat := overloadFixture(t, Config{
		OverheadLoops: 30000,
		Substrate:     SubstrateFlow,
		Flow:          FlowConfig{MailboxCredits: 8, Policy: ShedOnOverload},
	})
	if _, err := driveOverload(eng, cat, n, 0); err != nil {
		t.Fatalf("shedding engine failed: %v", err)
	}
	eng.Drain()
	m := eng.Metrics().Snapshot()
	eng.Stop()
	if m.ShedTuples == 0 {
		t.Fatal("no tuples shed — overload scenario too weak to exercise the policy")
	}
	if m.Ingested+m.ShedTuples != int64(n) {
		t.Errorf("admitted %d + shed %d != offered %d", m.Ingested, m.ShedTuples, n)
	}
	if m.Ingested == 0 {
		t.Error("everything shed — the engine made no progress at all")
	}
	t.Logf("admitted=%d shed=%d results=%d", m.Ingested, m.ShedTuples, m.Results)
}

// TestFlowStopWhileBlocked: Stop must wake a producer blocked at the
// admission gate instead of deadlocking the shutdown.
func TestFlowStopWhileBlocked(t *testing.T) {
	eng, cat := overloadFixture(t, Config{
		OverheadLoops: 100000,
		Substrate:     SubstrateFlow,
		Flow:          FlowConfig{MailboxCredits: 1, Workers: 1},
	})
	done := make(chan error, 1)
	go func() {
		ins := randomStream(cat, 100000, 8, 9)
		for _, in := range ins {
			if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	time.Sleep(50 * time.Millisecond) // let the producer hit the gate
	eng.Stop()
	select {
	case err := <-done:
		if err == nil {
			t.Error("producer finished 100k tuples against a stopped engine — admission never blocked?")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after Stop — admission gate not woken")
	}
}

// TestReentrantSinkIngest: a result sink feeding tuples back via
// Ingest runs on a dispatch goroutine. On the flow substrate it must
// get elastic credit instead of blocking on repayments only its own
// unfinished batch can make (the one-worker one-credit configuration
// deadlocks otherwise), and a StepMode feedback ingest must skip the
// per-tuple drain — the message being handled keeps inflight nonzero,
// so the drain could never settle.
func TestReentrantSinkIngest(t *testing.T) {
	configs := map[string]Config{
		"flow": {Substrate: SubstrateFlow,
			Flow: FlowConfig{MailboxCredits: 1, Workers: 1}},
		"flow-step": {Substrate: SubstrateFlow, StepMode: true,
			Flow: FlowConfig{MailboxCredits: 1, Workers: 1}},
		"flow-shed": {Substrate: SubstrateFlow,
			Flow: FlowConfig{MailboxCredits: 1, Workers: 1, Policy: ShedOnOverload}},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			qs, cat, err := query.ParseWorkload("q1: R(a) S(a)\nq2: F(a) S(a)")
			if err != nil {
				t.Fatal(err)
			}
			est := flatEstimates([]string{"R", "S", "F"}, 100)
			plan, err := core.NewOptimizer(core.Options{StoreParallelism: 2}).Optimize(qs, est)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Catalog = cat
			eng := New(cfg)
			if err := eng.Install(topo, 0); err != nil {
				t.Fatal(err)
			}
			var q1, q2, feedTS atomic.Int64
			feedTS.Store(10000)
			eng.OnResult("q1", func(tp *tuple.Tuple) {
				q1.Add(1)
				v := tp.MustGet("R.a")
				if err := eng.Ingest("F", tuple.Time(feedTS.Add(1)), v); err != nil {
					t.Errorf("re-entrant ingest: %v", err)
				}
			})
			eng.OnResult("q2", func(*tuple.Tuple) { q2.Add(1) })
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 200; i++ {
					k := tuple.IntValue(int64(i % 4))
					if err := eng.Ingest("S", tuple.Time(2*i+1), k); err != nil {
						t.Errorf("ingest: %v", err)
						return
					}
					if err := eng.Ingest("R", tuple.Time(2*i+2), k); err != nil {
						t.Errorf("ingest: %v", err)
						return
					}
				}
				eng.Drain()
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("deadlock: sink feedback blocked dispatch")
			}
			if cfg.Flow.Policy != ShedOnOverload {
				if shed := eng.Metrics().Snapshot().ShedTuples; shed != 0 {
					t.Errorf("%d tuples shed under a blocking policy", shed)
				}
			}
			// Feedback tuples are never shed (worker elastic credit), so
			// every q1 result must have produced a q2 join — even under
			// ShedOnOverload, where only source tuples may drop.
			if q1.Load() == 0 || q2.Load() == 0 {
				t.Fatalf("feedback produced q1=%d q2=%d — test vacuous", q1.Load(), q2.Load())
			}
			eng.Stop()
		})
	}
}

// TestPressureGauges: the per-task gauges and the aggregate Pressure
// reading are coherent after a settled run — all credits repaid, no
// queued work, every store task reporting its handled load.
func TestPressureGauges(t *testing.T) {
	grant := 32
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateFlow, Flow: FlowConfig{MailboxCredits: grant}})
	ins := randomStream(h.cat, 200, 8, 13)
	h.ingestAll(t, ins)
	gauges := h.eng.TaskGauges()
	if len(gauges) == 0 {
		t.Fatal("no task gauges")
	}
	var handled int64
	for _, g := range gauges {
		if g.QueueDepth != 0 {
			t.Errorf("task %s/%d still queues %d messages after drain", g.Store, g.Part, g.QueueDepth)
		}
		handled += g.Handled
	}
	if handled == 0 {
		t.Error("no task reported handled load")
	}
	p := h.eng.Pressure()
	if p.QueuedMessages != 0 || p.MaxQueueDepth != 0 {
		t.Errorf("pressure reports queued work after drain: %+v", p)
	}
	if want := int64(len(gauges) * grant); p.Credits != want {
		t.Errorf("credit balance %d after settle, want the full grant %d", p.Credits, want)
	}
	if p.ShedTuples != 0 {
		t.Errorf("shed %d tuples in an un-overloaded run", p.ShedTuples)
	}
	h.eng.Stop()
}
