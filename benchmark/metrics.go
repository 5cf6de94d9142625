package main

// metricDef names one metric. BENCHMARK.json carries the same lists; a
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one contract run measures.
const runSeconds = 14

// End-to-end metrics: host time and host memory as a user of dfarm, dfarmd
// or dcoord sees them. Every workload reports every one. The bounds come
// from two ten-seed sweeps of every workload on the 2-core build machine
// (README.md, "How the bounds were set"): the two timings sit at the
// contract's ceiling because a run's value moves by up to 10 % from run to
// run there and a bound has to clear three times that; -compare on
// interleaved runs is the instrument for anything finer.
var endToEnd = []metricDef{
	{Name: "verdict_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Per-layer metrics, all from the traced pass. No bounds: they explain a
// movement in an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	// The traced workload's own ledger: share of the reps' wall clock.
	{Name: "ledger.build_pct", Unit: "%", Better: "lower"},
	{Name: "ledger.runner_pct", Unit: "%", Better: "lower"},
	{Name: "ledger.kernel_pct", Unit: "%", Better: "higher"},
	{Name: "ledger.cache_pct", Unit: "%", Better: "lower"},
	{Name: "ledger.wire_pct", Unit: "%", Better: "lower"},
	{Name: "ledger.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "process.peak_heap_mb", Unit: "MB", Better: "lower"},
	// Exact counts of the traced workload (simulated statistics: they must
	// be bit-identical between two commits that only differ in speed).
	{Name: "workload.work_total", Unit: "count", Better: "higher"},
	{Name: "workload.ticks_total", Unit: "count", Better: "lower"},
	{Name: "workload.conflicts_total", Unit: "count", Better: "lower"},

	// Set-up layers.
	{Name: "spec.pipeline_build_ms.unoptimized", Unit: "ms", Better: "lower"},
	{Name: "spec.pipeline_build_ms.scc", Unit: "ms", Better: "lower"},
	{Name: "spec.pipeline_build_ms.scc_inline", Unit: "ms", Better: "lower"},
	{Name: "spec.pipeline_build_ms.compiled", Unit: "ms", Better: "lower"},
	{Name: "spec.domino_spec_build_ms", Unit: "ms", Better: "lower"},
	{Name: "drmt.build_ms", Unit: "ms", Better: "lower"},
	{Name: "farmd.request_expand_ms", Unit: "ms", Better: "lower"},

	// RMT kernel, geomean over the 12 programs.
	{Name: "sim.trafficgen.ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "sim.stream.ns_per_phv.unoptimized", Unit: "ns", Better: "lower"},
	{Name: "sim.stream.ns_per_phv.scc", Unit: "ns", Better: "lower"},
	{Name: "sim.stream.ns_per_phv.scc_inline", Unit: "ns", Better: "lower"},
	{Name: "sim.stream.ns_per_phv.compiled", Unit: "ns", Better: "lower"},
	{Name: "sim.batch.ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "domino.spec.ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "sim.fuzz.ns_per_phv.unoptimized", Unit: "ns", Better: "lower"},
	{Name: "sim.fuzz.ns_per_phv.compiled", Unit: "ns", Better: "lower"},
	{Name: "sim.fuzz.self_ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "sim.fuzz.allocs_per_phv", Unit: "count", Better: "lower"},
	{Name: "sim.ticks_per_phv", Unit: "count", Better: "lower"},

	// dRMT kernel, geomean over the dRMT benchmarks.
	{Name: "drmt.trafficgen.ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "drmt.isa.ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "drmt.table.ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "drmt.batch.ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "drmt.diff.ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "drmt.diff.self_ns_per_phv", Unit: "ns", Better: "lower"},
	{Name: "drmt.ticks_per_phv", Unit: "count", Better: "lower"},

	// Campaign engine.
	{Name: "campaign.shard_fixed_us", Unit: "us", Better: "lower"},
	{Name: "campaign.engine_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "campaign.scaling", Unit: "x", Better: "higher"},
	{Name: "campaign.shardkey_us", Unit: "us", Better: "lower"},
	{Name: "campaign.report_render_us_per_job", Unit: "us", Better: "lower"},

	// Cache tiers.
	{Name: "farmd.memcache.get_us", Unit: "us", Better: "lower"},
	{Name: "farmd.memcache.put_us", Unit: "us", Better: "lower"},
	{Name: "farmd.dircache.get_us", Unit: "us", Better: "lower"},
	{Name: "farmd.dircache.put_us", Unit: "us", Better: "lower"},
	{Name: "farmd.dircache.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "farmd.remotecache.get_us", Unit: "us", Better: "lower"},
	{Name: "farmd.remotecache.put_us", Unit: "us", Better: "lower"},
	{Name: "farmd.cache.hit_ratio.cold", Unit: "ratio", Better: "lower"},
	{Name: "farmd.cache.hit_ratio.warm", Unit: "ratio", Better: "higher"},
	{Name: "farmd.cache.hit_ratio.diskwarm", Unit: "ratio", Better: "higher"},
	{Name: "farmd.cold_submit_ms", Unit: "ms", Better: "lower"},
	{Name: "farmd.submit_overhead_ms", Unit: "ms", Better: "lower"},

	// Lease wire and dispatch.
	{Name: "farmd.lease.encode_us", Unit: "us", Better: "lower"},
	{Name: "farmd.lease.decode_us", Unit: "us", Better: "lower"},
	{Name: "farmd.lease.request_bytes", Unit: "B", Better: "lower"},
	{Name: "farmd.lease.response_bytes", Unit: "B", Better: "lower"},
	{Name: "farmd.lease.rtt_fixed_us", Unit: "us", Better: "lower"},
	{Name: "farmd.lease.rtt_shard_us", Unit: "us", Better: "lower"},
	{Name: "fabric.dispatch.execute_fixed_us", Unit: "us", Better: "lower"},
	{Name: "fabric.lease.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fabric.lease.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.lease.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.dispatch.retries", Unit: "count", Better: "lower"},
	{Name: "fabric.dispatch.fallback", Unit: "count", Better: "lower"},
	{Name: "fabric.efficiency", Unit: "ratio", Better: "higher"},

	// Journal.
	{Name: "fabric.journal.append_us", Unit: "us", Better: "lower"},
	{Name: "fabric.journal.save_request_us", Unit: "us", Better: "lower"},
	{Name: "fabric.journal.load_us_per_row", Unit: "us", Better: "lower"},

	// Verify and SAT.
	{Name: "verify.cell_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "verify.encode_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "sat.solve_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "sat.conflicts_total", Unit: "count", Better: "lower"},
	{Name: "verify.vars_total", Unit: "count", Better: "lower"},
	{Name: "verify.clauses_total", Unit: "count", Better: "lower"},
	{Name: "sat.conflicts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "verify.slowest_cell_share", Unit: "ratio", Better: "lower"},

	// Observability overhead.
	{Name: "obs.metered_overhead_pct", Unit: "%", Better: "lower"},
}
