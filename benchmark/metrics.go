package main

// metricDef declares one metric of the benchmark. The two lists below
// are the contract: BENCHMARK.json at the root of the repository repeats
// them, and a test holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a user of the system sees, measured on every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tuples_per_s", "1/s", "higher", 0.25},
	{"result_latency_p50_us", "us", "lower", 0.25},
	{"cpu_s_per_mtuple", "s", "lower", 0.25},
	{"alloc_bytes_per_tuple", "B", "lower", 0.10},
	{"state_bytes_peak", "B", "lower", 0.10},
	{"probe_tuples_per_input", "ratio", "lower", 0.05},
}

// perLayer are the numbers of single layers, from the traced run. A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "query.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "mir.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "mir.candidates_ms", Unit: "ms", Better: "lower"},
	{Name: "mir.mirs", Unit: "count", Better: "lower"},
	{Name: "mir.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ilp.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "ilp.build_ms", Unit: "ms", Better: "lower"},
	{Name: "ilp.nodes", Unit: "count", Better: "lower"},
	{Name: "ilp.vars", Unit: "count", Better: "lower"},
	{Name: "ilp.rows", Unit: "count", Better: "lower"},
	{Name: "ilp.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_cost", Unit: "cost", Better: "lower"},
	{Name: "core.reopt_share", Unit: "ratio", Better: "lower"},
	{Name: "topology.stores", Unit: "count", Better: "lower"},
	{Name: "topology.tasks", Unit: "count", Better: "lower"},
	{Name: "stats.observe_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "stats.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.install_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.ingest_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "runtime.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.messages_per_input", Unit: "ratio", Better: "lower"},
	{Name: "runtime.results_per_input", Unit: "ratio", Better: "higher"},
	{Name: "runtime.probe_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "runtime.insert_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "runtime.prune_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "runtime.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.insert_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.prune_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.state.bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "runtime.state.index_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.flow.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.flow.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "runtime.flow.lag_avg_us", Unit: "us", Better: "lower"},
	{Name: "runtime.flow.credits_min", Unit: "count", Better: "higher"},
	{Name: "tuple.encode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tuple.decode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "recovery.wal_append_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "recovery.wal_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "recovery.checkpoints", Unit: "count", Better: "lower"},
	{Name: "recovery.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "recovery.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.replayed_ingests", Unit: "count", Better: "lower"},
	{Name: "recovery.restored_tuples", Unit: "count", Better: "higher"},
	{Name: "recovery.recover_ms_per_shard", Unit: "ms", Better: "lower"},
	{Name: "cluster.ingest_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "cluster.buildplan_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "cluster.replica_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.admission_drops", Unit: "count", Better: "lower"},
	{Name: "cluster.p99_ingest_us", Unit: "us", Better: "lower"},
	{Name: "harness.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.reference_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.late_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.paced_rate_achieved_per_s", Unit: "1/s", Better: "higher"},
	{Name: "harness.result_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.result_latency_tail_pct", Unit: "%", Better: "higher"},
	{Name: "harness.latency_samples_dropped", Unit: "count", Better: "lower"},
	{Name: "harness.trace_overhead_share", Unit: "ratio", Better: "lower"},
	// The machine factor the timed end-to-end metrics were divided by,
	// and what the clock read before the division.
	{Name: "harness.machine_factor", Unit: "ratio", Better: "lower"},
	{Name: "harness.raw_setup_s", Unit: "s", Better: "lower"},
	{Name: "harness.raw_tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "harness.raw_result_latency_p50_us", Unit: "us", Better: "lower"},
	// End-to-end numbers that exist on one workload only, so they cannot
	// be gated on all four: the cost of a query arriving or expiring, the
	// time from crash to recovered, and the share of failed operations
	// (which must be 0 and so has no median to take a share of).
	{Name: "harness.reopt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.reopt_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.recover_s", Unit: "s", Better: "lower"},
	{Name: "harness.failed_share", Unit: "ratio", Better: "lower"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	return u
}
