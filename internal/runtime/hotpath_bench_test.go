package runtime

// Hot-path micro-benchmarks for the probe and routing paths. These are
// the numbers the compiled-plan layer (plan.go) and the columnar store
// (columnar.go) are measured against: run with
// -bench 'Probe|IngestRouting' -benchmem and compare allocs/op and ns/op
// across changes (benchstat-friendly names).

import (
	"testing"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// newBenchEngine compiles the workload and installs it on a synchronous
// engine configured by cfg, so every Ingest runs its complete probe
// chain inline — the per-tuple handling cost is exactly what the
// benchmark times.
func newBenchEngine(b *testing.B, workload string, opts core.Options, cfg Config) (*Engine, *query.Catalog) {
	b.Helper()
	qs, cat, err := query.ParseWorkload(workload)
	if err != nil {
		b.Fatal(err)
	}
	est := flatEstimates(cat.Names(), 1000)
	plan, err := core.NewOptimizer(opts).Optimize(qs, est)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: opts.StoreParallelism})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Catalog, cfg.Substrate = cat, SubstrateSynchronous
	eng := New(cfg)
	if err := eng.Install(topo, 0); err != nil {
		b.Fatal(err)
	}
	for _, q := range qs {
		eng.OnResult(q.Name, func(*tuple.Tuple) {})
	}
	return eng, cat
}

// BenchmarkProbeHotPath times one full three-way probe chain per op:
// an R tuple probes the S store (indexed lookup, ~4 matches), and each
// R⋈S result probes the T store (~4 matches each), so every op joins,
// batches, and delivers ~16 results through the sink.
func BenchmarkProbeHotPath(b *testing.B) {
	eng, _ := newBenchEngine(b, "q1: R(a) S(a,b) T(b)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true}, Config{})
	defer eng.Stop()

	const keys = 64
	ts := tuple.Time(1)
	for i := 0; i < 4*keys; i++ {
		k := int64(i % keys)
		if err := eng.Ingest("S", ts, tuple.IntValue(k), tuple.IntValue(k)); err != nil {
			b.Fatal(err)
		}
		if err := eng.Ingest("T", ts+1, tuple.IntValue(k)); err != nil {
			b.Fatal(err)
		}
		ts += 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Ingest("R", ts, tuple.IntValue(int64(i%keys))); err != nil {
			b.Fatal(err)
		}
		ts++
	}
}

// BenchmarkIngestRouting times the spout→store routing path on a
// partitioned deployment: each op hashes the tuple to one of four
// partitions, stores it, and runs a keyed probe that rarely matches —
// the message-routing overhead dominates, not join work.
func BenchmarkIngestRouting(b *testing.B) {
	benchIngestRouting(b, Config{})
}

// BenchmarkIngestColumnar is BenchmarkIngestRouting on the columnar
// store with the statistics tap attached, as clash.Start wires every
// engine: the ingested tuple goes back to its relation's free list once
// its messages are handled and the Observer has seen it (DESIGN.md §7),
// so B/op is what the store's growth costs, not the tuple.
func BenchmarkIngestColumnar(b *testing.B) {
	col := stats.NewCollector(256, 128, 1)
	benchIngestRouting(b, Config{StateBackend: BackendColumnar,
		Observer: func(rel string, t *tuple.Tuple) { col.Observe(rel, t) }})
}

func benchIngestRouting(b *testing.B, cfg Config) {
	eng, _ := newBenchEngine(b, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 4}, cfg)
	defer eng.Stop()

	ts := tuple.Time(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := "R"
		if i&1 == 1 {
			rel = "S"
		}
		// Large key space: probes hit the index but almost never match.
		if err := eng.Ingest(rel, ts, tuple.IntValue(int64(i))); err != nil {
			b.Fatal(err)
		}
		ts++
	}
}

// BenchmarkPruneRetainedIndices times window expiry on a store whose
// probe index is hot: after each prune the next probe must still find
// its partners without a full index rebuild.
func BenchmarkPruneRetainedIndices(b *testing.B) {
	eng, _ := newBenchEngine(b, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true}, Config{DefaultWindow: 4096})
	defer eng.Stop()

	const window = 4096
	ts := tuple.Time(1)
	const keys = 128
	for i := 0; i < 2048; i++ {
		rel := "R"
		if i&1 == 1 {
			rel = "S"
		}
		if err := eng.Ingest(rel, ts, tuple.IntValue(int64(i%keys))); err != nil {
			b.Fatal(err)
		}
		ts++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := "R"
		if i&1 == 1 {
			rel = "S"
		}
		if err := eng.Ingest(rel, ts, tuple.IntValue(int64(i%keys))); err != nil {
			b.Fatal(err)
		}
		ts++
		if i%512 == 511 {
			eng.PruneBefore(eng.Watermark() - window)
		}
	}
}

// BenchmarkProbeColumnarHit times the long-state hit path of the
// columnar store: a two-way join over a 200k-tuple window in 64 epochs,
// S and R 4:1 over 100k zipf(0.6) keys — the shape of the benchmark's
// longstate-probe workload. Each op ingests one tuple, which probes
// every epoch in window reach (the index filters dismiss most), walks
// the chains of the few that hold its key, joins what matched, and is
// stored; the window is pruned at every epoch boundary.
func BenchmarkProbeColumnarHit(b *testing.B) {
	const window, epochs, keys = 200_000, 64, 100_000
	eng, _ := newBenchEngine(b, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true},
		Config{StateBackend: BackendColumnar, DefaultWindow: window, EpochLength: window / epochs})
	defer eng.Stop()

	z := rng.NewZipf(rng.New(1), keys, 0.6)
	r := rng.New(2)
	ts := tuple.Time(0)
	next := func() {
		ts++
		rel := "S"
		if r.Intn(5) == 0 {
			rel = "R"
		}
		if err := eng.Ingest(rel, ts, tuple.IntValue(int64(z.Draw()))); err != nil {
			b.Fatal(err)
		}
		if ts%(window/epochs) == 0 {
			eng.PruneBefore(ts - window)
		}
	}
	for i := 0; i < window; i++ {
		next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}

// BenchmarkProbeStoreMiss times the probe that finds nothing in a long
// store: a two-way join on the columnar backend whose S store holds 16
// epochs of 1 024 rows over 4 096 keys. Each op probes the store with
// one R tuple, and fifteen probes in sixteen carry a key it does not
// hold: the store filter answers those from one word, without visiting
// an epoch. The sixteenth walks every epoch in reach and joins the
// few rows it finds.
func BenchmarkProbeStoreMiss(b *testing.B) {
	const epochs, epochLen, keys = 16, 1024, 4096
	eng, _ := newBenchEngine(b, "q1: R(a) S(a)",
		core.Options{StoreParallelism: 1, DisablePartitioning: true},
		Config{StateBackend: BackendColumnar, DefaultWindow: epochs * epochLen, EpochLength: epochLen})
	defer eng.Stop()
	r := rng.New(1)
	ts := tuple.Time(0)
	for ; ts < epochs*epochLen; ts++ {
		if err := eng.Ingest("S", ts, tuple.IntValue(r.Int64n(keys))); err != nil {
			b.Fatal(err)
		}
	}
	tk, rp, edge := probePlan(b, eng, true)
	st := tk.stateFor(rp)
	msgs := make([]message, 64)
	for i := range msgs {
		k := int64(keys + i) // never stored: a miss
		if i%16 == 0 {
			k = int64(i)
		}
		probe := tuple.New(eng.sources["R"].schema, ts, tuple.IntValue(k), tuple.IntValue(int64(ts)))
		msgs[i] = message{edge: edge, epoch: eng.Epoch(ts), batch: []*tuple.Tuple{probe}, seq: 1 << 30}
	}
	for i := range msgs {
		tk.probeBatched(&msgs[i], rp, st) // warm the caches and the arena
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.probeBatched(&msgs[i%len(msgs)], rp, st)
	}
}
