package clash

// Benchmarks exercising the public clash API: one optimizer entry point
// and the engine facade. allocs/op is their signal; timings are judged
// by benchmark/ (BENCHMARK.json).

import (
	"testing"
	"time"

	"clash/internal/stats"
)

// BenchmarkOptimizeWorkedExample times the Sec. V-2 two-query ILP.
func BenchmarkOptimizeWorkedExample(b *testing.B) {
	qs, _, err := ParseWorkload("q1: R(a) S(a,b) T(b)\nq2: S(b) T(b,c) U(c)")
	if err != nil {
		b.Fatal(err)
	}
	est := NewEstimates(0.01)
	for _, r := range []string{"R", "S", "T", "U"} {
		est.SetRate(r, 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(qs, est, OptimizerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineIngest measures raw runtime throughput of a two-way
// symmetric join with windowed state.
func BenchmarkEngineIngest(b *testing.B) {
	est := stats.NewEstimates(0.01)
	est.SetRate("R", 1000)
	est.SetRate("S", 1000)
	eng, err := Start(Config{
		Workload:         "q1: R(a) S(a)",
		DefaultWindow:    time.Duration(50_000),
		InitialEstimates: est,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	eng.OnResult("q1", func(*Tuple) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := "R"
		if i%2 == 1 {
			rel = "S"
		}
		if err := eng.Ingest(rel, Time(i), Int(int64(i%1000))); err != nil {
			b.Fatal(err)
		}
	}
	eng.Drain()
}
