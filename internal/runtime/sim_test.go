package runtime

// Tests for the deterministic simulation substrate (sim.go, DESIGN.md
// §9): same-seed runs reproduce byte-identical results AND identical
// schedule traces; different seeds explore different interleavings (the
// seed sweep against ReferenceJoin, the TPC-H multi-query workload of
// Fig. 7 included, is a column of TestExactnessMatrix); virtual time
// drives the latency/lag metrics; and fault injection (task stalls,
// credit starvation) perturbs the schedule without perturbing the
// answer.

import (
	"fmt"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/tuple"
)

// simTraceEqual reports the first index at which two traces diverge
// (-1 when identical).
func simTraceEqual(a, b []SimEvent) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// runSim executes the workload on a simulation engine and returns the
// sorted results and the schedule trace.
func runSim(t *testing.T, workload string, window time.Duration, ins []Ingestion, sim SimConfig, stepMode bool) (map[string]*CollectSink, []SimEvent, Snapshot) {
	t.Helper()
	var trace []SimEvent
	prev := sim.OnEvent
	sim.OnEvent = func(ev SimEvent) {
		trace = append(trace, ev)
		if prev != nil {
			prev(ev)
		}
	}
	h := newHarness(t, workload,
		core.Options{StoreParallelism: 3},
		flatEstimates([]string{"R", "S", "T", "U"}, 100),
		Config{Substrate: SubstrateSim, Sim: sim, StepMode: stepMode, DefaultWindow: window})
	h.ingestAll(t, ins)
	snap := h.eng.Metrics().Snapshot()
	h.eng.Stop()
	return h.sinks, trace, snap
}

// TestSimSameSeedIsDeterministic: two runs of the same seeded scenario
// produce identical schedule traces, byte-identical result multisets,
// and identical deterministic metrics.
func TestSimSameSeedIsDeterministic(t *testing.T) {
	const workload = "q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)"
	cat := mustCatalog(t, workload)
	ins := randomStream(cat, 400, 5, 99)
	sinks1, trace1, m1 := runSim(t, workload, 40, ins, SimConfig{Seed: 7}, true)
	sinks2, trace2, m2 := runSim(t, workload, 40, ins, SimConfig{Seed: 7}, true)
	if i := simTraceEqual(trace1, trace2); i >= 0 {
		t.Fatalf("same-seed traces diverge at step %d (lens %d vs %d)", i, len(trace1), len(trace2))
	}
	if len(trace1) == 0 {
		t.Fatal("empty schedule trace — test vacuous")
	}
	for q := range sinks1 {
		a, b := fmt.Sprint(sortedResults(sinks1[q])), fmt.Sprint(sortedResults(sinks2[q]))
		if a != b {
			t.Errorf("%s: same-seed results differ", q)
		}
	}
	if m1.Results != m2.Results || m1.ProbeSent != m2.ProbeSent || m1.Messages != m2.Messages {
		t.Errorf("same-seed metrics diverged:\n%v\n%v", m1, m2)
	}
	if m1.Results == 0 {
		t.Fatal("no results — test vacuous")
	}
}

// TestSimSeedsExploreSchedules: different seeds must produce different
// interleavings (that is the whole point of the sweep) while agreeing
// on the result multiset.
func TestSimSeedsExploreSchedules(t *testing.T) {
	const workload = "q1: R(a) S(a,b) T(b)"
	cat := mustCatalog(t, workload)
	ins := randomStream(cat, 300, 5, 13)
	var ref string
	distinct := false
	var refTrace []SimEvent
	for seed := uint64(1); seed <= 4; seed++ {
		sinks, trace, _ := runSim(t, workload, 0, ins, SimConfig{Seed: seed}, true)
		got := fmt.Sprint(sortedResults(sinks["q1"]))
		if ref == "" {
			ref, refTrace = got, trace
			continue
		}
		if got != ref {
			t.Errorf("seed %d produced a different result multiset", seed)
		}
		if simTraceEqual(refTrace, trace) >= 0 {
			distinct = true
		}
	}
	if ref == "" || ref == "[]" {
		t.Fatal("no results — test vacuous")
	}
	if !distinct {
		t.Error("four different seeds produced the identical schedule — the scheduler is not seed-driven")
	}
}

// TestSimVirtualTimeMetrics pins the clock routing: on the simulation
// substrate, latency and lag are measured in virtual nanoseconds, so a
// fast-forward between ingest and the matching probe shows up exactly
// in the metrics — independent of how long the test really took.
func TestSimVirtualTimeMetrics(t *testing.T) {
	h := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateSim, Sim: SimConfig{Seed: 3}, StepMode: true})
	defer h.eng.Stop()
	vc := h.eng.VirtualClock()
	if vc == nil {
		t.Fatal("simulation engine has no virtual clock")
	}
	if err := h.eng.Ingest("R", 1, tuple.IntValue(7)); err != nil {
		t.Fatal(err)
	}
	const ff = 5 * time.Second
	vc.Advance(ff)
	if err := h.eng.Ingest("S", 2, tuple.IntValue(7)); err != nil {
		t.Fatal(err)
	}
	h.eng.Drain()
	if h.sinks["q1"].Count() != 1 {
		t.Fatalf("results = %d, want 1", h.sinks["q1"].Count())
	}
	m := h.eng.Metrics().Snapshot()
	if m.LatCount != 1 {
		t.Fatalf("latency samples = %d, want 1", m.LatCount)
	}
	// The result latency is measured from the S ingest (after the
	// fast-forward), so it is a handful of virtual dispatch steps —
	// far below the fast-forward — while total virtual time includes it.
	if m.AvgLatency <= 0 || m.AvgLatency >= ff {
		t.Errorf("virtual result latency = %v, want a few dispatch steps (0 < lat < %v)", m.AvgLatency, ff)
	}
	if now := vc.Now(); now < int64(ff) {
		t.Errorf("virtual clock = %dns, want ≥ the %v fast-forward", now, ff)
	}
	// A second run must reproduce the identical virtual latency: virtual
	// time is part of the deterministic schedule.
	h2 := newHarness(t, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateSim, Sim: SimConfig{Seed: 3}, StepMode: true})
	defer h2.eng.Stop()
	if err := h2.eng.Ingest("R", 1, tuple.IntValue(7)); err != nil {
		t.Fatal(err)
	}
	h2.eng.VirtualClock().Advance(ff)
	if err := h2.eng.Ingest("S", 2, tuple.IntValue(7)); err != nil {
		t.Fatal(err)
	}
	h2.eng.Drain()
	if m2 := h2.eng.Metrics().Snapshot(); m2.AvgLatency != m.AvgLatency {
		t.Errorf("virtual latency not reproducible: %v vs %v", m.AvgLatency, m2.AvgLatency)
	}
}

// TestSimTaskStallFault: a deterministic stall on one store task delays
// its dispatches (visible in the trace) without changing the answer,
// and replays identically from the same seed.
func TestSimTaskStallFault(t *testing.T) {
	const workload = "q1: R(a) S(a,b) T(b)"
	cat := mustCatalog(t, workload)
	ins := randomStream(cat, 300, 5, 17)

	// Stall the first store task the scheduler ever picks, for every 3rd
	// pick over the first 200 steps — a deterministic function of the
	// event, as the contract requires.
	var victim *SimEvent
	stall := func(ev SimEvent) bool {
		if victim == nil {
			v := ev
			victim = &v
		}
		return ev.Step < 200 && ev.Step%3 == 0 && ev.Store == victim.Store && ev.Part == victim.Part
	}
	sinks, trace, _ := runSim(t, workload, 0, ins, SimConfig{Seed: 11, Stall: stall}, true)
	stalls := 0
	for _, ev := range trace {
		if ev.Stalled {
			stalls++
		}
	}
	if stalls == 0 {
		t.Fatal("no stall events traced — fault injection inert")
	}

	// The stalled schedule still computes the exact answer.
	h := newHarness(t, workload,
		core.Options{StoreParallelism: 3},
		flatEstimates([]string{"R", "S", "T"}, 100),
		Config{Substrate: SubstrateSynchronous})
	h.ingestAll(t, ins)
	want := fmt.Sprint(sortedResults(h.sinks["q1"]))
	h.eng.Stop()
	if got := fmt.Sprint(sortedResults(sinks["q1"])); got != want {
		t.Errorf("stalled schedule changed the result multiset")
	}
	if want == "[]" {
		t.Fatal("no results — test vacuous")
	}

	// Replay from the seed: identical trace, stalls included.
	victim = nil
	_, replay, _ := runSim(t, workload, 0, ins, SimConfig{Seed: 11, Stall: stall}, true)
	if i := simTraceEqual(trace, replay); i >= 0 {
		t.Fatalf("fault replay diverges at step %d", i)
	}
}

// TestSimCreditStarvation: the credit model bounds queueing exactly as
// the real flow substrate — a starved producer runs the topology
// forward (Block) or sheds (Shed) — deterministically per seed.
func TestSimCreditStarvation(t *testing.T) {
	const workload = "q1: R(a) S(a)"
	cat := mustCatalog(t, workload)
	ins := randomStream(cat, 2000, 8, 5)

	// BlockOnOverload: lossless, bounded queueing, exact results. No
	// StepMode: the backlog is only drained by admission-gate pumping.
	h := newHarness(t, workload,
		core.Options{StoreParallelism: 2},
		flatEstimates([]string{"R", "S"}, 100),
		Config{Substrate: SubstrateSim, Sim: SimConfig{Seed: 9, MailboxCredits: 4}})
	h.engStepModeOff()
	var peak int64
	for i, in := range ins {
		if err := h.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
		if i%32 == 0 {
			if p := h.eng.Pressure(); p.QueuedMessages > peak {
				peak = p.QueuedMessages
			}
		}
	}
	h.eng.Drain()
	h.checkAgainstOracle(t, ins)
	m := h.eng.Metrics().Snapshot()
	granted := int64(len(h.eng.TaskGauges()) * 4)
	if m.ShedTuples != 0 {
		t.Errorf("BlockOnOverload shed %d tuples", m.ShedTuples)
	}
	// Queueing is bounded by the grant plus the per-tuple emission
	// overdraft — far below the 2000-tuple backlog an unbounded run
	// would accumulate.
	if peak > 4*granted {
		t.Errorf("peak queued %d far exceeds the %d-credit grant — admission gate inert", peak, granted)
	}
	p := h.eng.Pressure()
	if p.Credits != granted {
		t.Errorf("credit balance %d after settle, want the full grant %d", p.Credits, granted)
	}
	h.eng.Stop()

	// ShedOnOverload: lossy but live and accounted, and deterministic —
	// the same seed sheds the same tuples.
	shedRun := func() (Snapshot, string) {
		hs := newHarness(t, workload,
			core.Options{StoreParallelism: 2},
			flatEstimates([]string{"R", "S"}, 100),
			Config{Substrate: SubstrateSim,
				Sim: SimConfig{Seed: 9, MailboxCredits: 4, Policy: ShedOnOverload}})
		hs.engStepModeOff()
		for _, in := range ins {
			if err := hs.eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		hs.eng.Drain()
		snap := hs.eng.Metrics().Snapshot()
		res := fmt.Sprint(sortedResults(hs.sinks["q1"]))
		hs.eng.Stop()
		return snap, res
	}
	m1, r1 := shedRun()
	if m1.ShedTuples == 0 {
		t.Fatal("no tuples shed — starvation scenario too weak")
	}
	if m1.Ingested+m1.ShedTuples != int64(len(ins)) {
		t.Errorf("admitted %d + shed %d != offered %d", m1.Ingested, m1.ShedTuples, len(ins))
	}
	m2, r2 := shedRun()
	if m1.ShedTuples != m2.ShedTuples || r1 != r2 {
		t.Errorf("shedding not deterministic: %d vs %d shed", m1.ShedTuples, m2.ShedTuples)
	}
}

// engStepModeOff clears the StepMode flag newHarness forces onto
// non-synchronous engines — the credit-starvation tests need the
// free-running backlog.
func (h *harness) engStepModeOff() { h.eng.cfg.StepMode = false }

// mustCatalog parses the workload's catalog for stream generation.
func mustCatalog(t *testing.T, workload string) *query.Catalog {
	t.Helper()
	_, cat, err := query.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}
