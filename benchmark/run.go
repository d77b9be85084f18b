package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"clash"
)

// value is one measured number with its unit and, for a number drawn
// from a sample (a median, a percentile), the size of the sample.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Scale     float64          `json:"scale"`
	Traced    bool             `json:"traced"`
	Sizes     map[string]int64 `json:"sizes"`
	Metrics   map[string]value `json:"metrics"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Notes     []string         `json:"notes,omitempty"`
	Digest    digest           `json:"digest"`
	Checked   string           `json:"checked"` // what the reference covered
	TracePath string           `json:"trace,omitempty"`

	tuplesPerSecond float64 // of the measured window, for trace_overhead_share
}

func (r *result) set(name string, v float64, samples int64) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name), Samples: samples}
}

func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runOpts selects how a workload is run.
type runOpts struct {
	seed   uint64
	scale  float64 // 1 = the frozen sizes
	traced bool    // keep spans, switch MeasuredCosts on, run the layer probes
	outDir string  // traces and scratch files
	full   bool    // check every result against the reference, not a prefix
}

// slicesPerWindow is how many slices a measured window is cut into,
// unless the workload has a natural unit of its own.
const slicesPerWindow = 50

// maxLatencySamples bounds the latency reservoir of a run.
const maxLatencySamples = 1 << 20

// A set-up is repeated at least minSetups times, and on until
// setupBudget is spent or maxSetups is reached, so that a set-up of a
// few milliseconds still yields a steady median.
const (
	minSetups   = 3
	maxSetups   = 31
	setupBudget = time.Second
	setupShots  = 11 // of the kernel before each set-up and after the last
)

// setUp runs start repeatedly and keeps the last product for the run;
// each earlier product is handed to discard. It reports the median
// set-up time, as the clock read it and on the nominal machine. One
// machine factor serves the whole phase, the median of every shot taken
// between the set-ups: the phase is short, and a reading of a few shots
// next to a freshly started engine is too rough to adjust one set-up by.
func setUp[T any](r *result, start func(rep int) (T, error), discard func(T)) (kept T, err error) {
	runtime.GC()
	var seconds, shots []float64
	spent := time.Duration(0)
	for rep := 0; rep < minSetups || (spent < setupBudget && rep < maxSetups); rep++ {
		if rep > 0 {
			discard(kept)
		}
		shots = append(shots, calibrationShots(setupShots)...)
		t0 := time.Now()
		kept, err = start(rep)
		d := time.Since(t0)
		if err != nil {
			return kept, fmt.Errorf("set-up %d: %w", rep, err)
		}
		spent += d
		seconds = append(seconds, d.Seconds())
	}
	shots = append(shots, calibrationShots(setupShots)...)
	factor := median(shots) / calibrationNominalNS
	r.set("setup_s", median(seconds)/factor, int64(len(seconds)))
	r.set("harness.raw_setup_s", median(seconds), int64(len(seconds)))
	return kept, nil
}

// syncSpec describes a workload that runs on one synchronous engine:
// the load generator calls Ingest and every result of that input has
// been delivered when the call returns.
type syncSpec struct {
	name      string
	in        *stream
	warm      int      // inputs ingested before the measured window, to fill the join window
	epoch     int      // epoch length in inputs; state is sampled at epoch boundaries
	slices    int      // slices of the measured window; 0 means slicesPerWindow
	queries   []string // every query that may produce results during the run
	latStride int      // results of every latStride-th input are timed
	sizes     map[string]int64
	genMS     float64

	// start is the whole set-up a user pays: parse → estimate →
	// optimize → compile → install.
	start func(so startOpts) (*clash.Engine, error)
	// churn, when set, changes the installed queries during the window.
	churn *churnPlan

	// The correctness gate: reference runs the system in a configuration
	// that shares neither plan nor state layout with the measured one
	// over inputs [0, upTo), and checked lists the queries it answers.
	checkUpTo int
	checked   []string
	checkedBy string
	reference func(upTo int, onResult map[string]func(*clash.Tuple)) error

	// probes replays the workload's own queries and tuples through
	// single layers; traced runs only.
	probes func(tr *tracer, r *result) error
}

type startOpts struct {
	measuredCosts bool
	onResult      map[string]func(*clash.Tuple)
}

// churnPlan is the schedule of query arrivals and expiries.
type churnPlan struct {
	every int // one step per this many inputs of the measured window
	steps []func(*clash.Engine) error
}

// feed ingests inputs [from, to) in a closed loop.
func feed(eng *clash.Engine, in *stream, from, to int) error {
	for i := from; i < to; i++ {
		rel, vals := in.at(i)
		if err := eng.Ingest(rel, clash.Time(i+1), vals...); err != nil {
			return fmt.Errorf("ingest %d: %w", i, err)
		}
	}
	return nil
}

func runSync(sp *syncSpec, o runOpts) (*result, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer(sp.name)
	}
	r := &result{Workload: sp.name, Seed: o.seed, Scale: o.scale, Traced: o.traced,
		Sizes: sp.sizes, Metrics: map[string]value{}}
	n := sp.in.len()
	snk := newSink(sp.queries, n, maxLatencySamples)

	endSetup := tr.begin("harness.setup")
	eng, err := setUp(r, func(int) (*clash.Engine, error) {
		return sp.start(startOpts{measuredCosts: o.traced, onResult: snk.callbacks()})
	}, func(e *clash.Engine) { e.Stop() })
	endSetup()
	if err != nil {
		return nil, err
	}
	defer eng.Stop()
	plans := &planStats{}
	plans.add(eng.Plan())

	endWarm := tr.begin("harness.warmup")
	if err := feed(eng, sp.in, 0, sp.warm); err != nil {
		return nil, err
	}
	endWarm()
	runtime.GC()

	// The measured window.
	checkUpTo := sp.checkUpTo
	if o.full {
		checkUpTo = n
	}
	var atCheck digest
	base := eng.Metrics()
	var peakState int64
	var reopt []int64 // wall ns of each AddQuery/RemoveQuery
	var reoptNS int64
	slices := sp.slices
	if slices == 0 {
		slices = slicesPerWindow
	}
	ends := sliceEnds(n-sp.warm, slices)
	var win window
	endWin := tr.begin("harness.measured")
	win.begin()
	endBatch := tr.begin("runtime.ingest")
	for i, slice, step := sp.warm, 0, 0; i < n; i++ {
		k := i - sp.warm
		if c := sp.churn; c != nil && k%c.every == 0 && step < len(c.steps) {
			endBatch()
			endStep := tr.begin("runtime.reopt")
			t0 := nanos()
			if err := c.steps[step](eng); err != nil {
				return nil, fmt.Errorf("churn step %d: %w", step, err)
			}
			d := nanos() - t0
			endStep()
			reoptNS += d
			reopt = append(reopt, d)
			plans.add(eng.Plan())
			step++
			endBatch = tr.begin("runtime.ingest")
		}
		if i == checkUpTo {
			atCheck = snk.digest()
		}
		rel, vals := sp.in.at(i)
		if i%sp.latStride == 0 {
			snk.due[i] = nanos()
		}
		if err := eng.Ingest(rel, clash.Time(i+1), vals...); err != nil {
			r.fail(1, "ingest %d: %v", i, err)
		}
		if tr != nil && (k+1)%1024 == 0 {
			endBatch()
			endBatch = tr.begin("runtime.ingest")
		}
		if (i+1)%sp.epoch == 0 {
			if b := eng.Metrics().StoreBytes; b > peakState {
				peakState = b
			}
		}
		if k+1 == ends[slice] {
			endBatch()
			if slice == len(ends)-1 {
				endDrain := tr.begin("runtime.drain")
				eng.Drain()
				endDrain()
			}
			win.cut(k + 1)
			slice++
			endBatch = tr.begin("runtime.ingest")
		}
	}
	endBatch()
	endWin()
	if checkUpTo >= n {
		atCheck = snk.digest()
	}
	if err := eng.Failure(); err != nil {
		r.fail(1, "engine failed: %v", err)
	}

	m := eng.Metrics()
	if m.StoreBytes > peakState {
		peakState = m.StoreBytes
	}
	measured := int64(n - sp.warm)
	win.report(r)
	r.set("state_bytes_peak", float64(peakState), 0)
	r.set("probe_tuples_per_input", float64(m.ProbeSent-base.ProbeSent)/float64(measured), 0)
	setLatency(r, snk, func(input int) float64 { return win.factorAt(input - sp.warm) })

	sort.Slice(reopt, func(i, j int) bool { return reopt[i] < reopt[j] })
	if len(reopt) > 0 {
		r.set("harness.reopt_p50_ms", float64(percentile(reopt, 0.5))/1e6, int64(len(reopt)))
	}
	if highestPercentile(len(reopt)) >= 0.9 {
		r.set("harness.reopt_p90_ms", float64(percentile(reopt, 0.9))/1e6, int64(len(reopt)))
	}
	r.set("core.reopt_share", float64(reoptNS)/1e9/win.wallSeconds(), 0)
	r.set("runtime.messages_per_input", float64(m.Messages-base.Messages)/float64(measured), 0)
	r.set("runtime.results_per_input", float64(m.Results-base.Results)/float64(measured), 0)
	engineLayerMetrics(r, []*clash.Engine{eng}, m.Stored, m.StoreBytes, m.IndexBytes)
	plans.report(r)
	r.set("harness.gen_ms", sp.genMS, 0)

	// Correctness: the same inputs through the reference configuration.
	r.Attempted = int64(n)
	r.Failed += m.ShedTuples
	r.Digest = snk.digest()
	if o.full || !checkStored(r, o, sp.queries) {
		if err := checkReference(r, atCheck, sp.checked, sp.checkedBy, checkUpTo, n, sp.reference); err != nil {
			return nil, err
		}
	}
	r.set("harness.failed_share", float64(r.Failed)/float64(r.Attempted), 0)

	if o.traced {
		if err := sp.probes(tr, r); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		traceMetrics(r, tr, "runtime.ingest", measured)
		if r.TracePath, err = tr.write(o.outDir); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkReference runs the reference configuration over inputs [0, upTo)
// and counts as failures the results by which got, the measured run's
// digest at that point, differs from it over the checked queries.
func checkReference(r *result, got digest, checked []string, by string, upTo, n int,
	reference func(upTo int, onResult map[string]func(*clash.Tuple)) error) error {
	t0 := time.Now()
	ref := newSink(checked, 0, 0)
	if err := reference(upTo, ref.callbacks()); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.set("harness.reference_ms", float64(time.Since(t0))/1e6, 0)
	if bad, detail := got.diff(ref.digest(), checked); bad > 0 {
		r.Failed += bad
		r.Notes = append(r.Notes, detail...)
	}
	if ref.results() == 0 {
		r.fail(1, "the reference produced no results: the check is vacuous")
	}
	r.Checked = fmt.Sprintf("%s over inputs [0,%d) of %d, %d results", by, upTo, n, ref.results())
	return nil
}

// report sets the metrics a closed-loop window yields.
func (w *window) report(r *result) {
	n := int64(len(w.slices))
	r.tuplesPerSecond = w.tuplesPerSecond()
	r.set("tuples_per_s", r.tuplesPerSecond, n)
	r.set("cpu_s_per_mtuple", w.cpuSecondsPerMTuple(), n)
	r.set("alloc_bytes_per_tuple", w.allocBytesPerTuple(), n)
	r.set("harness.raw_tuples_per_s", w.rawTuplesPerSecond(), n)
	r.set("harness.machine_factor", w.machineFactor(), n)
}

// minLatencySamples is how many timed results a query needs before its
// median counts.
const minLatencySamples = 100

// setLatency reports the median result latency, taken per query and
// averaged over the queries: a query's users see that query's latency,
// however many results the other queries produce. (The median over all
// results pooled is not steady: on tpch-mqo the queries' latencies lie a
// factor of seven apart and the mix of results shifts with the data.)
// factorOf gives the machine factor of the stretch an input fell in. The
// tail is the highest percentile the pooled sample supports, as the
// clock read it.
func setLatency(r *result, snk *sink, factorOf func(input int) float64) {
	raw, adjusted, eligible := snk.latencies(factorOf)
	var pooled []int64
	for _, v := range raw {
		pooled = append(pooled, v...)
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	n := int64(len(pooled))
	r.set("result_latency_p50_us", medianOverQueries(adjusted), n)
	r.set("harness.raw_result_latency_p50_us", medianOverQueries(raw), n)
	if p := highestPercentile(len(pooled)); p > 0 {
		r.set("harness.result_latency_p99_us", float64(percentile(pooled, p))/1e3, n)
		r.set("harness.result_latency_tail_pct", p*100, n)
	}
	r.set("harness.latency_samples_dropped", float64(eligible-n), 0)
}

// medianOverQueries averages, in µs, the medians of the queries with
// enough samples; with no such query it falls back on the pooled median.
func medianOverQueries(perQuery [][]int64) float64 {
	var medians []float64
	var pooled []int64
	for _, v := range perQuery {
		pooled = append(pooled, v...)
		if len(v) >= minLatencySamples {
			medians = append(medians, float64(percentile(v, 0.5))/1e3)
		}
	}
	if len(medians) == 0 {
		sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
		return float64(percentile(pooled, 0.5)) / 1e3
	}
	return mean(medians)
}
