package clash

import (
	"bytes"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	eng, err := Start(Config{
		Workload: "q1: R(a) S(a,b) T(b)",
		StepMode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	var mu sync.Mutex
	var results []*Tuple
	eng.OnResult("q1", func(tp *Tuple) {
		mu.Lock()
		results = append(results, tp.Clone()) // tp is recycled once the callback returns
		mu.Unlock()
	})

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(eng.Ingest("R", 1, Int(7)))
	must(eng.Ingest("S", 2, Int(7), Int(3)))
	must(eng.Ingest("T", 3, Int(3)))
	must(eng.Ingest("T", 4, Int(99))) // no partner
	eng.Drain()

	mu.Lock()
	defer mu.Unlock()
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	if v, _ := results[0].Get("S.b"); v.Int() != 3 {
		t.Errorf("result = %v", results[0])
	}
	m := eng.Metrics()
	if m.Ingested != 4 || m.Results != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := Start(Config{Workload: "q1: R(a"}); err == nil {
		t.Error("bad workload should fail")
	}
	if _, err := Start(Config{Workload: "q1: R(a)"}); err == nil {
		t.Error("single-relation query should fail")
	}
}

// TestFailedStartStopsEngine: a Start whose initial solve fails has
// already built the engine — on the flow substrate, a pool of workers
// and the statistics goroutine — and must stop it before returning the
// error, with and without a WAL. A disconnected query has no probe
// order, so the solve fails.
func TestFailedStartStopsEngine(t *testing.T) {
	base := goruntime.NumGoroutine()
	for i := 0; i < 5; i++ {
		cfg := Config{Workload: "q1: R(a) S(b)"}
		if i%2 == 1 {
			cfg.WAL = &WALConfig{Storage: NewMemWALStorage()}
		}
		if eng, err := Start(cfg); err == nil {
			eng.Stop()
			t.Fatal("Start of a disconnected query succeeded")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 5 failed Starts, %d before", goruntime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOptimizeAPI(t *testing.T) {
	qs, _, err := ParseWorkload("q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)")
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimates(0.01)
	for _, r := range []string{"R", "S", "T", "U"} {
		est.SetRate(r, 100)
	}
	joint, err := Optimize(qs, est, OptimizerOptions{DisableMIRs: true, DisablePartitioning: true, StoreParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	individual, err := OptimizeIndividually(qs, est, OptimizerOptions{DisableMIRs: true, DisablePartitioning: true, StoreParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range individual {
		sum += p.Objective
	}
	if joint.Objective >= sum {
		t.Errorf("MQO (%g) did not beat individual (%g)", joint.Objective, sum)
	}
	topo, err := CompilePlans([]*Plan{joint}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Stores) == 0 {
		t.Error("empty topology")
	}
}

func TestAdaptiveEngineAPI(t *testing.T) {
	eng, err := Start(Config{
		Workload:      "q1: R(a) S(a)",
		StepMode:      true,
		DefaultWindow: 100,
		EpochLength:   50,
		Adaptive:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	count := 0
	var mu sync.Mutex
	eng.OnResult("q1", func(*Tuple) { mu.Lock(); count++; mu.Unlock() })
	for i := 0; i < 200; i++ {
		if err := eng.Ingest("R", Time(i*2), Int(int64(i%5))); err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest("S", Time(i*2+1), Int(int64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	mu.Lock()
	got := count
	mu.Unlock()
	if got == 0 {
		t.Error("no results")
	}
	// Reoptimizations counts installed configuration *changes*; a stable
	// workload may legitimately keep its initial plan.
	if eng.Reoptimizations() < 1 {
		t.Errorf("no configuration installed: %d", eng.Reoptimizations())
	}
	if eng.Plan() == nil || eng.Estimates() == nil {
		t.Error("plan/estimates accessors broken")
	}
	// Old epochs beyond the GC horizon are pruned; the current epoch
	// always resolves.
	if eng.Topology(1<<30) == nil {
		t.Error("no topology at the current epoch")
	}
}

func TestQueryChurnAPI(t *testing.T) {
	eng, err := Start(Config{
		Workload:      "q1: R(a) S(a)\n# S joins T too\nq2: S(b) T(b)",
		StepMode:      true,
		DefaultWindow: 1000 * time.Nanosecond,
		EpochLength:   100,
		Adaptive:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.RemoveQuery("q2"); err != nil {
		t.Fatal(err)
	}
	q3, _, err := ParseQuery("q3: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery(q3); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest("R", 1, Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Failure(); err != nil {
		t.Fatal(err)
	}
}

func TestSynchronousEngineAPI(t *testing.T) {
	// The same three-way workload run twice in synchronous mode must
	// produce identical results without any Drain calls: each Ingest
	// returns only after the tuple's complete probe chain finished.
	run := func() (int, MetricsSnapshot) {
		eng, err := Start(Config{
			Workload:    "q1: R(a) S(a,b) T(b)",
			Synchronous: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Stop()
		count := 0
		eng.OnResult("q1", func(*Tuple) { count++ }) // safe: no worker goroutines
		for i := 0; i < 50; i++ {
			k := Int(int64(i % 4))
			if err := eng.Ingest("R", Time(3*i), k); err != nil {
				t.Fatal(err)
			}
			if err := eng.Ingest("S", Time(3*i+1), k, k); err != nil {
				t.Fatal(err)
			}
			if err := eng.Ingest("T", Time(3*i+2), k); err != nil {
				t.Fatal(err)
			}
		}
		return count, eng.Metrics()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 == 0 {
		t.Fatal("no results")
	}
	if c1 != c2 || m1.ProbeSent != m2.ProbeSent || m1.Results != m2.Results {
		t.Errorf("synchronous runs diverged: %d/%d results, %d/%d probes",
			c1, c2, m1.ProbeSent, m2.ProbeSent)
	}
	if int64(c1) != m1.Results {
		t.Errorf("callback count %d != metric %d", c1, m1.Results)
	}
}

func TestCheckpointRestoreAPI(t *testing.T) {
	cfg := Config{Workload: "q1: R(a) S(a)", Synchronous: true}
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest("R", 1, Int(42)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	eng.Stop()

	eng2, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Stop()
	if err := eng2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	count := 0
	eng2.OnResult("q1", func(*Tuple) { count++ })
	if err := eng2.Ingest("S", 2, Int(42)); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("restored history produced %d results, want 1", count)
	}
}

func TestValueConstructors(t *testing.T) {
	if Int(5).Int() != 5 || Str("x").Str() != "x" || Float(1.5).Float() != 1.5 || !Bool(true).Bool() {
		t.Error("value constructors broken")
	}
}

func TestFlowSubstrateAPI(t *testing.T) {
	// The flow-controlled substrate through the public API: identical
	// results to the synchronous reference, pressure gauges readable,
	// all credits repaid once drained.
	run := func(cfg Config) (int64, MetricsSnapshot) {
		cfg.Workload = "q1: R(a) S(a,b) T(b)"
		eng, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Stop()
		var count atomic.Int64
		eng.OnResult("q1", func(*Tuple) { count.Add(1) })
		for i := 0; i < 60; i++ {
			k := Int(int64(i % 5))
			if err := eng.Ingest("R", Time(3*i), k); err != nil {
				t.Fatal(err)
			}
			if err := eng.Ingest("S", Time(3*i+1), k, k); err != nil {
				t.Fatal(err)
			}
			if err := eng.Ingest("T", Time(3*i+2), k); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		return count.Load(), eng.Metrics()
	}
	refCount, refM := run(Config{Synchronous: true})
	if refCount == 0 {
		t.Fatal("no results — test vacuous")
	}
	flowCount, flowM := run(Config{
		Substrate: SubstrateFlow,
		StepMode:  true, // settle multi-hop chains per tuple (exactness)
		Flow:      FlowConfig{MailboxCredits: 16},
	})
	if flowCount != refCount || flowM.Results != refM.Results {
		t.Errorf("flow substrate results %d (metric %d), synchronous reference %d",
			flowCount, flowM.Results, refM.Results)
	}
	if flowM.ShedTuples != 0 {
		t.Errorf("unexpected shedding: %d", flowM.ShedTuples)
	}

	// Pressure through the public API on a settled flow engine.
	eng, err := Start(Config{
		Workload:  "q1: R(a) S(a)",
		Substrate: SubstrateFlow,
		Flow:      FlowConfig{MailboxCredits: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.Ingest("R", 1, Int(7)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest("S", 2, Int(7)); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	gauges := eng.TaskGauges()
	if len(gauges) == 0 {
		t.Fatal("no task gauges through public API")
	}
	p := eng.Pressure()
	if p.QueuedMessages != 0 {
		t.Errorf("queued work after drain: %+v", p)
	}
	if want := int64(len(gauges) * 16); p.Credits != want {
		t.Errorf("credit balance %d, want full grant %d", p.Credits, want)
	}
}

func TestDefaultAsyncEngineRunsOnThePool(t *testing.T) {
	// Neither Synchronous nor Substrate set: the engine runs on the flow
	// substrate with its default grant of 256 credits per task, all of
	// them back in the pool once drained.
	eng, err := Start(Config{Workload: "q1: R(a) S(a)"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	for i := 0; i < 40; i++ {
		if err := eng.Ingest("R", Time(2*i), Int(int64(i%5))); err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest("S", Time(2*i+1), Int(int64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	gauges := eng.TaskGauges()
	if len(gauges) == 0 {
		t.Fatal("no task gauges")
	}
	if want, got := int64(len(gauges)*256), eng.Pressure().Credits; got != want {
		t.Errorf("credit balance %d after drain, want the full default grant %d", got, want)
	}
	if eng.Metrics().Results == 0 {
		t.Error("no results — test vacuous")
	}
}

func TestStateLimitRequiresEpochs(t *testing.T) {
	// With EpochLength 0 there is one epoch and the arrival epoch is never
	// shed, so the budget could neither shed nor fail: Start and Recover
	// refuse it, naming both fields.
	checkRequiresEpochs(t, "StateLimitBytes", Config{Workload: "q1: R(a) S(a)", StateLimitBytes: 1 << 20})
}

func TestAdaptiveRequiresEpochs(t *testing.T) {
	// With EpochLength 0 no epoch boundary ever comes, so an adaptive
	// engine would run its initial plan unchanged without saying so:
	// Start and Recover refuse it, naming both fields.
	checkRequiresEpochs(t, "Adaptive", Config{Workload: "q1: R(a) S(a)", Adaptive: true})
}

// checkRequiresEpochs asserts that Start and Recover reject cfg, which
// sets field but leaves EpochLength 0, with an error naming both, and
// that Start accepts it once EpochLength is set.
func checkRequiresEpochs(t *testing.T, field string, cfg Config) {
	t.Helper()
	check := func(op string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted %s without EpochLength", op, field)
		}
		if msg := err.Error(); !strings.Contains(msg, field) || !strings.Contains(msg, "EpochLength") {
			t.Errorf("%s error %q does not name %s and EpochLength", op, msg, field)
		}
	}
	_, err := Start(cfg)
	check("Start", err)
	cfg.WAL = &WALConfig{Storage: NewMemWALStorage()}
	_, _, err = Recover(cfg)
	check("Recover", err)

	cfg.WAL, cfg.EpochLength = nil, 64
	eng, err := Start(cfg)
	if err != nil {
		t.Fatalf("%s with EpochLength rejected: %v", field, err)
	}
	eng.Stop()
}

func TestStateLimitShedsAndStaysLive(t *testing.T) {
	// StateLimitBytes alone, unbounded window: state would grow without
	// end, the budget sheds whole epochs instead, and the engine never
	// fails — on the synchronous and on the default asynchronous
	// substrate alike.
	const limit = 32 << 10
	for name, cfg := range map[string]Config{
		"synchronous": {Synchronous: true},
		"default":     {},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Workload = "q1: R(a) S(a)"
			cfg.EpochLength = 64
			cfg.StateLimitBytes = limit
			eng, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			for i := 0; i < 4000; i++ {
				rel := "R"
				if i%2 == 1 {
					rel = "S"
				}
				if err := eng.Ingest(rel, Time(i), Int(int64(i/2%16))); err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
			}
			eng.Drain()
			if err := eng.Failure(); err != nil {
				t.Fatalf("state budget failed the engine: %v", err)
			}
			m := eng.Metrics()
			if m.EvictedEpochs == 0 || m.EvictedTuples == 0 {
				t.Fatalf("nothing shed (epochs=%d tuples=%d) — scenario too weak", m.EvictedEpochs, m.EvictedTuples)
			}
			if m.StoreBytes > 2*limit {
				t.Errorf("resident state %d far exceeds the %d budget", m.StoreBytes, limit)
			}
			if m.Results == 0 {
				t.Error("no results — test vacuous")
			}
		})
	}
}

func TestSimSubstrateAPI(t *testing.T) {
	// The deterministic simulation substrate through the public API:
	// identical results to the synchronous reference, identical schedule
	// traces on same-seed reruns, different schedules across seeds, and
	// a working virtual clock.
	run := func(cfg Config) (int64, []SimEvent, *Engine) {
		cfg.Workload = "q1: R(a) S(a,b) T(b)"
		var trace []SimEvent
		if cfg.Substrate == SubstrateSim {
			cfg.Sim.OnEvent = func(ev SimEvent) { trace = append(trace, ev) }
		}
		eng, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var count atomic.Int64
		eng.OnResult("q1", func(*Tuple) { count.Add(1) })
		for i := 0; i < 60; i++ {
			k := Int(int64(i % 5))
			if err := eng.Ingest("R", Time(3*i), k); err != nil {
				t.Fatal(err)
			}
			if err := eng.Ingest("S", Time(3*i+1), k, k); err != nil {
				t.Fatal(err)
			}
			if err := eng.Ingest("T", Time(3*i+2), k); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
		return count.Load(), trace, eng
	}
	refCount, _, refEng := run(Config{Synchronous: true})
	refEng.Stop()
	if refCount == 0 {
		t.Fatal("no results — test vacuous")
	}
	if refEng.VirtualClock() != nil {
		t.Error("synchronous engine reports a virtual clock")
	}

	simCfg := Config{Substrate: SubstrateSim, Sim: SimConfig{Seed: 42}, StepMode: true}
	c1, t1, e1 := run(simCfg)
	c2, t2, e2 := run(simCfg)
	if c1 != refCount || c2 != refCount {
		t.Errorf("sim results %d/%d, synchronous reference %d", c1, c2, refCount)
	}
	if len(t1) == 0 || len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("same-seed traces diverge at step %d", i)
		}
	}
	if vc := e1.VirtualClock(); vc == nil || vc.Now() == 0 {
		t.Error("virtual time did not advance")
	}
	e1.Stop()
	e2.Stop()

	c3, t3, e3 := run(Config{Substrate: SubstrateSim, Sim: SimConfig{Seed: 1}, StepMode: true})
	defer e3.Stop()
	if c3 != refCount {
		t.Errorf("seed 1 results %d, reference %d", c3, refCount)
	}
	same := len(t3) == len(t1)
	if same {
		for i := range t3 {
			if t3[i] != t1[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 1 and 42 produced the identical schedule")
	}
}
