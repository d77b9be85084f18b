package bench

// Long-state benchmark (DESIGN.md §10): the state-backend shoot-out on
// a workload where state growth, not CPU, is the bottleneck — a wide
// window holding tens of thousands of tuples across many epochs, a
// skewed key distribution (a few hot keys carry long posting lists),
// and a probe/prune mix dominated by store maintenance. Each backend
// runs three stages:
//
//   probe — a preloaded long-window store is probed with a skewed key
//           mix (mostly misses, periodic hot hits), counting allocs,
//           candidates and filter rejects per probe (and reading ns/op
//           for the printed column) through testing.Benchmark;
//   prune — a sliding window advances one tuple at a time over a full
//           store, measuring the incremental insert+prune cycle. Both
//           backends skip epochs wholly inside the window by their min
//           event time and compact only the boundary one;
//   evict — an unbounded-window stream grows state past a budget set
//           from the measured resident bytes: as MemoryLimitBytes the
//           run must die with ErrMemoryLimit (the seed behaviour), as
//           StateLimitBytes it must survive with counted drops.
//
// clash-bench -fig longstate prints the per-backend numbers. The ns/op
// columns are printed, never compared: the timed twin of this scenario
// is the benchmark's longstate-probe workload.

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	goruntime "runtime"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/runtime"
	"clash/internal/sim"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// LongStateConfig parameterizes the long-state scenario.
type LongStateConfig struct {
	Tuples      int           // preloaded stored tuples (default 20000)
	Keys        int64         // key domain (default 512)
	HotKeys     int64         // keys carrying half the stream (default 8)
	EpochLength time.Duration // epoch granularity (default 256)
	PruneWindow time.Duration // sliding window of the prune stage (default 4096)
	Seed        uint64
}

func (c *LongStateConfig) fill() {
	if c.Tuples == 0 {
		c.Tuples = 20000
	}
	if c.Keys == 0 {
		c.Keys = 512
	}
	if c.HotKeys == 0 {
		c.HotKeys = 8
	}
	if c.EpochLength == 0 {
		c.EpochLength = 256
	}
	if c.PruneWindow == 0 {
		c.PruneWindow = 4096
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// LongStateResult is one backend's run of all three stages.
type LongStateResult struct {
	Backend string

	// Store footprint after the probe-stage preload.
	Stored     int64 // resident tuples
	StateBytes int64 // accounted resident bytes (payload+structure+index)
	IndexBytes int64 // index-overhead portion
	HeapBytes  int64 // measured heap growth attributable to the store (RSS proxy)

	ProbeNsOp     int64 // probe stage: one skewed probe into the long store
	ProbeAllocsOp int64
	ProbeMatches  float64 // join results per probe (non-vacuity)
	ProbeCands    float64 // stored rows the index handed each probe (≥ matches; the gap is index imprecision)
	ProbeRejects  float64 // per-epoch index lookups the index filters spared each probe

	PruneNsOp     int64 // prune stage: one insert + sliding-window prune cycle
	PruneAllocsOp int64

	// Eviction stage (budget = StateBytes/3 of this backend's build).
	FailDiedAt    int   // tuple index where MemoryLimitBytes hit ErrMemoryLimit (-1: never — a failure)
	EvictSurvived bool  // StateLimitBytes finished the same stream
	EvictedEpochs int64 // epochs shed at the budget (tiered: must stay 0 — it demotes instead)
	EvictedTuples int64
	EvictResults  int64 // results the surviving run still produced
	DemotedEpochs int64 // tiered eviction stage: epochs spilled instead of shed

	// Tiered stage (tiered row only): a 10× window under a hot
	// budget sized from the 1× resident footprint — a store no
	// in-memory backend survives on that budget.
	Tiered *TieredStageResult
}

// TieredStageResult is the 10×-window tiered run: the resident/spilled
// split, the tier traffic, and the cold-probe cost. EvictedTuples must
// be exactly zero — the whole point of the tier is surviving the budget
// without touching the answer.
type TieredStageResult struct {
	WindowTuples   int64 // stored tuples (10× the probe stage)
	HotBudget      int64 // Config.StateHotBytes for the run
	ResidentBytes  int64 // accounted resident bytes after the run
	SpilledBytes   int64 // live cold payload on disk
	DemotedEpochs  int64
	PromotedEpochs int64
	ColdProbeNsOp  int64 // skewed probe against the mostly-cold store
	ColdHits       int64 // cold probes that consulted disk
	ColdMisses     int64 // cold probes dismissed by cut/Bloom
	EvictedTuples  int64 // must be 0
}

// StateConfig re-exports the state-matrix row type so cmd/clash-bench
// needs only this package.
type StateConfig = sim.StateConfig

// ParseBackend maps a -backend flag value to its row of the state
// matrix ("" = container).
func ParseBackend(name string) (StateConfig, error) {
	rows := sim.StateConfigs()
	if name == "" {
		return rows[0], nil
	}
	for _, row := range rows {
		if strings.EqualFold(name, row.Name) {
			return row, nil
		}
	}
	return StateConfig{}, fmt.Errorf("bench: unknown state backend %q (container|columnar|tiered)", name)
}

// longStateTopo compiles the two-way join deployed in every stage.
func longStateTopo(parallelism int) ([]*query.Query, *query.Catalog, *topology.Config, error) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		return nil, nil, nil, err
	}
	est := stats.NewEstimates(0.05)
	for _, name := range cat.Names() {
		est.SetRate(name, 1000)
	}
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: parallelism}).Optimize(qs, est)
	if err != nil {
		return nil, nil, nil, err
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: parallelism})
	if err != nil {
		return nil, nil, nil, err
	}
	return qs, cat, topo, nil
}

// key draws from the skewed stored distribution: half the mass on the
// hot keys, half uniform over the cold remainder.
func (c *LongStateConfig) key(r *rng.RNG) int64 {
	if r.Intn(2) == 0 {
		return r.Int64n(c.HotKeys)
	}
	return c.HotKeys + r.Int64n(c.Keys-c.HotKeys)
}

func heapInUse() int64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// LongState runs all stages on every row of the state matrix — or only
// the rows named in only — and reports one result per row, container
// first (the baseline) when running the full set.
func LongState(cfg LongStateConfig, only ...StateConfig) ([]LongStateResult, error) {
	cfg.fill()
	rows := only
	if len(rows) == 0 {
		rows = sim.StateConfigs()
	}
	var out []LongStateResult
	for _, row := range rows {
		r, err := longStateBackend(row, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: longstate %s: %w", row.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// idleTier is the hot budget of the tiered row's probe, prune, and
// eviction stages: the spill tier is on but its own budget never binds,
// so those stages measure the tier's overhead on an all-hot store and
// let the state limit alone drive demotions. The 10×-window stage sizes
// a binding budget from the measured footprint instead of the matrix's
// forcing one.
const idleTier = math.MaxInt64

func longStateBackend(row StateConfig, cfg LongStateConfig) (LongStateResult, error) {
	res := LongStateResult{Backend: row.Name, FailDiedAt: -1}
	backend, hot := row.Backend, int64(0)
	if row.HotBytes > 0 {
		hot = idleTier
	}

	// ---- Probe stage: preload a long-window store, probe it skewed.
	_, cat, topo, err := longStateTopo(1)
	if err != nil {
		return res, err
	}
	// GC percent up: the benchmark measures the backends' allocation
	// behaviour, not the collector's pacing on a growing heap.
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	heapBefore := heapInUse()
	eng := runtime.New(runtime.Config{
		Catalog:       cat,
		Synchronous:   true,
		StateBackend:  backend,
		StateHotBytes: hot,
		DefaultWindow: time.Duration(4 * cfg.Tuples), // covers the whole preload span
		EpochLength:   cfg.EpochLength,
	})
	var results int64
	eng.OnResult("q1", func(*tuple.Tuple) { results++ })
	if err := eng.Install(topo, 0); err != nil {
		return res, err
	}
	r := rng.New(cfg.Seed)
	ts := tuple.Time(0)
	for i := 0; i < cfg.Tuples; i++ {
		ts++
		if err := eng.Ingest("R", ts, tuple.IntValue(cfg.key(r))); err != nil {
			return res, err
		}
	}
	eng.Drain()

	// Warm every segment's R-store index before snapshotting: the
	// footprint of a long-state store includes its local indices.
	probeTS := ts
	miss := cfg.Keys * 4
	if err := eng.Ingest("S", probeTS, tuple.IntValue(miss)); err != nil {
		return res, err
	}
	eng.Drain()
	m := eng.Metrics().Snapshot()
	res.Stored, res.StateBytes, res.IndexBytes = m.Stored, m.StoreBytes, m.IndexBytes
	res.HeapBytes = heapInUse() - heapBefore

	probeN := 0
	preResults, preCands, preRejects := results, m.ProbeCandidates, m.ProbeFilterRejects
	br := testing.Benchmark(func(b *testing.B) {
		pr := rng.New(cfg.Seed + 1)
		for i := 0; i < b.N; i++ {
			// 1-in-8 probes hit the stored skew (long chains on hot
			// keys); the rest miss — pure index-structure cost.
			k := miss + pr.Int64n(cfg.Keys)
			if pr.Intn(8) == 0 {
				k = cfg.key(pr)
			}
			if err := eng.Ingest("S", probeTS, tuple.IntValue(k)); err != nil {
				b.Fatal(err)
			}
		}
		probeN += b.N
	})
	res.ProbeNsOp = br.NsPerOp()
	res.ProbeAllocsOp = br.AllocsPerOp()
	if probeN > 0 {
		res.ProbeMatches = float64(results-preResults) / float64(probeN)
		post := eng.Metrics().Snapshot()
		res.ProbeCands = float64(post.ProbeCandidates-preCands) / float64(probeN)
		res.ProbeRejects = float64(post.ProbeFilterRejects-preRejects) / float64(probeN)
	}
	eng.Stop()
	if res.ProbeMatches == 0 {
		return res, fmt.Errorf("probe stage produced no matches — vacuous")
	}

	// ---- Prune stage: slide a window one tuple at a time.
	if err := res.pruneStage(backend, hot, cfg); err != nil {
		return res, err
	}

	// ---- Eviction stage: budget from the measured resident bytes.
	if err := res.evictStage(backend, hot, cfg, res.StateBytes/3); err != nil {
		return res, err
	}

	// ---- Tiered stage (tiered row only): 10× the window under a hot
	// budget equal to the 1× resident footprint measured above.
	if hot > 0 {
		return res, res.tieredStage(cfg, res.StateBytes)
	}
	return res, nil
}

func (res *LongStateResult) pruneStage(backend runtime.StateBackendKind, hot int64, cfg LongStateConfig) error {
	_, cat, topo, err := longStateTopo(1)
	if err != nil {
		return err
	}
	eng := runtime.New(runtime.Config{
		Catalog:       cat,
		Synchronous:   true,
		StateBackend:  backend,
		StateHotBytes: hot,
		DefaultWindow: cfg.PruneWindow,
		EpochLength:   cfg.EpochLength,
	})
	defer eng.Stop()
	eng.OnResult("q1", func(*tuple.Tuple) {})
	if err := eng.Install(topo, 0); err != nil {
		return err
	}
	r := rng.New(cfg.Seed + 2)
	window := tuple.Time(cfg.PruneWindow)
	ts := tuple.Time(0)
	ingest := func() error {
		ts++
		return eng.Ingest("R", ts, tuple.IntValue(cfg.key(r)))
	}
	// Fill the window, build the store-side indices, then warm one
	// full window of insert+prune cycles so every backing array is at
	// its high-water mark before timing.
	for i := tuple.Time(0); i < window; i++ {
		if err := ingest(); err != nil {
			return err
		}
	}
	if err := eng.Ingest("S", ts, tuple.IntValue(0)); err != nil {
		return err
	}
	cycle := func() error {
		if err := ingest(); err != nil {
			return err
		}
		// A periodic miss probe keeps the indices of fresh epochs
		// live, so prune maintains postings rather than skipping them.
		if ts%64 == 0 {
			if err := eng.Ingest("S", ts, tuple.IntValue(cfg.Keys*4)); err != nil {
				return err
			}
		}
		eng.PruneBefore(ts - window)
		return nil
	}
	for i := tuple.Time(0); i < window; i++ {
		if err := cycle(); err != nil {
			return err
		}
	}
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := cycle(); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.PruneNsOp = br.NsPerOp()
	res.PruneAllocsOp = br.AllocsPerOp()
	return nil
}

// evictStage replays one unbounded-window stream twice under the same
// budget: as MemoryLimitBytes it must die at the wall, as
// StateLimitBytes it must finish live with counted drops.
func (res *LongStateResult) evictStage(backend runtime.StateBackendKind, hot int64, cfg LongStateConfig, budget int64) error {
	run := func(memLimit, stateLimit int64) (*runtime.Engine, int, error) {
		_, cat, topo, err := longStateTopo(1)
		if err != nil {
			return nil, 0, err
		}
		eng := runtime.New(runtime.Config{
			Catalog:          cat,
			Synchronous:      true,
			StateBackend:     backend,
			StateHotBytes:    hot,
			EpochLength:      cfg.EpochLength,
			MemoryLimitBytes: memLimit,
			StateLimitBytes:  stateLimit,
		})
		var results int64
		eng.OnResult("q1", func(*tuple.Tuple) { results++ })
		if err := eng.Install(topo, 0); err != nil {
			eng.Stop()
			return nil, 0, err
		}
		r := rng.New(cfg.Seed + 3)
		ts := tuple.Time(0)
		for i := 0; i < cfg.Tuples; i++ {
			ts++
			rel := "R"
			if i%2 == 1 {
				rel = "S"
			}
			if err := eng.Ingest(rel, ts, tuple.IntValue(r.Int64n(64))); err != nil {
				eng.Stop()
				return nil, i, err
			}
		}
		eng.Drain()
		res.EvictResults = results
		return eng, -1, nil
	}

	eng, at, err := run(budget, 0)
	if !errors.Is(err, runtime.ErrMemoryLimit) {
		if eng != nil {
			eng.Stop()
		}
		return fmt.Errorf("MemoryLimitBytes survived the %d-byte budget (err=%v) — scenario too weak", budget, err)
	}
	res.FailDiedAt = at

	eng, _, err = run(0, budget)
	if err != nil {
		return fmt.Errorf("StateLimitBytes failed the engine: %w", err)
	}
	defer eng.Stop()
	m := eng.Metrics().Snapshot()
	res.EvictSurvived = true
	res.EvictedEpochs, res.EvictedTuples = m.EvictedEpochs, m.EvictedTuples
	res.DemotedEpochs = m.DemotedEpochs
	if hot > 0 {
		// Demote-first: the tier honors the budget by spilling; any
		// eviction would have changed the answer.
		if res.EvictedEpochs != 0 || res.EvictedTuples != 0 {
			return fmt.Errorf("tiered row evicted %d epochs / %d tuples instead of demoting",
				res.EvictedEpochs, res.EvictedTuples)
		}
		if res.DemotedEpochs == 0 {
			return fmt.Errorf("tiered row survived the budget without demoting — scenario too weak")
		}
	} else if res.EvictedEpochs == 0 {
		return fmt.Errorf("StateLimitBytes survived without evicting — scenario too weak")
	}
	return nil
}

// tieredStage grows the store to 10× the probe stage's span under
// StateHotBytes equal to the 1× resident footprint — a budget both
// tier-less rows demonstrably cannot hold this stream in (the
// eviction stage killed them at a third of it) — then probes the
// mostly-cold store with the same skewed mix. Nothing may be evicted:
// the overflow lives on disk and every probe still sees the full
// window.
func (res *LongStateResult) tieredStage(cfg LongStateConfig, budget int64) error {
	_, cat, topo, err := longStateTopo(1)
	if err != nil {
		return err
	}
	tuples := 10 * cfg.Tuples
	eng := runtime.New(runtime.Config{
		Catalog:       cat,
		Synchronous:   true,
		StateBackend:  runtime.BackendColumnar,
		DefaultWindow: time.Duration(4 * tuples),
		EpochLength:   cfg.EpochLength,
		StateHotBytes: budget,
	})
	defer eng.Stop()
	var results int64
	eng.OnResult("q1", func(*tuple.Tuple) { results++ })
	if err := eng.Install(topo, 0); err != nil {
		return err
	}
	r := rng.New(cfg.Seed + 4)
	ts := tuple.Time(0)
	for i := 0; i < tuples; i++ {
		ts++
		if err := eng.Ingest("R", ts, tuple.IntValue(cfg.key(r))); err != nil {
			return err
		}
	}
	eng.Drain()
	st := &TieredStageResult{HotBudget: budget}
	m := eng.Metrics().Snapshot()
	st.WindowTuples, st.DemotedEpochs = m.Stored, m.DemotedEpochs
	if st.DemotedEpochs == 0 {
		return fmt.Errorf("tiered stage demoted nothing under a %d-byte hot budget — vacuous", budget)
	}

	// Skewed probes against the mostly-cold store: misses are dismissed
	// by the stubs' Bloom filters; hits read cold epochs through and
	// swing them hot and back (the reused frames make the swing cheap).
	probeTS := ts
	miss := cfg.Keys * 4
	br := testing.Benchmark(func(b *testing.B) {
		pr := rng.New(cfg.Seed + 5)
		for i := 0; i < b.N; i++ {
			k := miss + pr.Int64n(cfg.Keys)
			if pr.Intn(8) == 0 {
				k = cfg.key(pr)
			}
			if err := eng.Ingest("S", probeTS, tuple.IntValue(k)); err != nil {
				b.Fatal(err)
			}
		}
	})
	st.ColdProbeNsOp = br.NsPerOp()

	m = eng.Metrics().Snapshot()
	st.ResidentBytes = m.StoreBytes
	st.SpilledBytes = m.SpilledBytes
	st.DemotedEpochs, st.PromotedEpochs = m.DemotedEpochs, m.PromotedEpochs
	st.ColdHits, st.ColdMisses = m.ColdProbeHits, m.ColdProbeMisses
	st.EvictedTuples = m.EvictedTuples
	res.Tiered = st
	if st.EvictedTuples != 0 {
		return fmt.Errorf("tiered stage evicted %d tuples — the tier must absorb the overflow losslessly", st.EvictedTuples)
	}
	if st.SpilledBytes == 0 {
		return fmt.Errorf("tiered stage holds nothing on disk — vacuous")
	}
	// Resident state must track the budget, with slack for the hot tail
	// (the newest epoch never demotes) and the cold stubs.
	if st.ResidentBytes > 2*budget {
		return fmt.Errorf("tiered stage resident bytes %d far exceed the %d hot budget", st.ResidentBytes, budget)
	}
	if results == 0 {
		return fmt.Errorf("tiered stage produced no results — vacuous")
	}
	return nil
}

// FormatLongState renders the shoot-out, container baseline first.
func FormatLongState(results []LongStateResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %12s %10s %12s %16s %13s %10s %9s\n",
		"backend", "stored", "state MiB", "index MiB", "heap MiB", "probe ns", "probe alloc", "candidates/probe", "rejects/probe", "prune ns", "prune alloc")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %10d %12.2f %12.2f %12.2f %10d %12d %16.3f %13.3f %10d %9d\n",
			r.Backend, r.Stored,
			float64(r.StateBytes)/(1<<20), float64(r.IndexBytes)/(1<<20), float64(r.HeapBytes)/(1<<20),
			r.ProbeNsOp, r.ProbeAllocsOp, r.ProbeCands, r.ProbeRejects, r.PruneNsOp, r.PruneAllocsOp)
	}
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s eviction: MemoryLimitBytes died at tuple %d; StateLimitBytes survived=%v shed %d epochs / %d tuples (demoted %d), %d results\n",
			r.Backend, r.FailDiedAt, r.EvictSurvived, r.EvictedEpochs, r.EvictedTuples, r.DemotedEpochs, r.EvictResults)
	}
	for _, r := range results {
		if r.Tiered == nil {
			continue
		}
		st := r.Tiered
		fmt.Fprintf(&b, "%-10s 10x window: %d tuples under %.2f MiB hot budget — resident %.2f MiB, spilled %.2f MiB, demoted %d / promoted %d epochs, cold probe %d ns (%d hits / %d misses), evicted %d\n",
			r.Backend, st.WindowTuples, float64(st.HotBudget)/(1<<20),
			float64(st.ResidentBytes)/(1<<20), float64(st.SpilledBytes)/(1<<20),
			st.DemotedEpochs, st.PromotedEpochs, st.ColdProbeNsOp, st.ColdHits, st.ColdMisses, st.EvictedTuples)
	}
	return b.String()
}
