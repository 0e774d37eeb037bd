package main

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is, for an end-to-end metric, the share of the baseline median by
	// which it may worsen before a change counts as a regression.
	bound float64
}

// e2eMetrics are what a caller of solverd sees, reported per workload.
// The bounds clear the worst run-to-run spread measured over 2 x 10 seeds
// on a shared 2-vCPU VM (cold-deep's throughput, p50 and CPU reach 10-13%,
// hit-dense's p99 20%, hit-dense's RSS 7%); see README.md.
var e2eMetrics = []metricDef{
	{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.20},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "server_cpu_ms_per_req", unit: "ms", better: "lower", bound: 0.20},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// errorRate is reported beside the end-to-end metrics; it is 0 on every
// correct run, so it is gated as "no increase" rather than by a share.
var errorRate = metricDef{name: "error_rate", unit: "ratio", better: "lower"}

// layerMetrics come from the traced in-process run (and, for ratios of
// solverd's own counters, from /metrics deltas over the end-to-end window).
// README.md says which end-to-end metric and workload each should move.
var layerMetrics = []metricDef{
	{name: "modelio.decode_us", unit: "us", better: "lower"},
	{name: "modelio.decode_allocs", unit: "allocs/op", better: "lower"},
	{name: "modelio.normalize_us", unit: "us", better: "lower"},
	{name: "modelio.cachekey_us", unit: "us", better: "lower"},
	{name: "modelio.cachekey_allocs", unit: "allocs/op", better: "lower"},
	{name: "modelio.trajectory_us", unit: "us", better: "lower"},
	{name: "modelio.encode_us", unit: "us", better: "lower"},
	{name: "modelio.encode_allocs", unit: "allocs/op", better: "lower"},
	{name: "modelio.response_bytes", unit: "bytes", better: "lower"},
	{name: "modelio.sweep_plan_us", unit: "us", better: "lower"},
	{name: "admission.evaluate_us", unit: "us", better: "lower"},
	{name: "admission.coalesced_ratio", unit: "ratio", better: "higher"},
	{name: "admission.over_capacity_ratio", unit: "ratio", better: "lower"},
	{name: "server.solve_hit_us", unit: "us", better: "lower"},
	{name: "server.solve_extend_us", unit: "us", better: "lower"},
	{name: "server.solve_miss_us", unit: "us", better: "lower"},
	{name: "server.solve_hit_allocs", unit: "allocs/op", better: "lower"},
	{name: "server.sweep_us", unit: "us", better: "lower"},
	{name: "server.engine_overhead_us", unit: "us", better: "lower"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.extend_ratio", unit: "1/req", better: "lower"},
	{name: "server.solves_per_req", unit: "1/req", better: "lower"},
	{name: "server.step_pops_per_req", unit: "1/req", better: "lower"},
	{name: "server.handler_us", unit: "us", better: "lower"},
	{name: "server.handler_allocs", unit: "allocs/op", better: "lower"},
	{name: "server.middleware_us", unit: "us", better: "lower"},
	{name: "core.build_us", unit: "us", better: "lower"},
	{name: "core.run_ns_per_pop.exact", unit: "ns/pop", better: "lower"},
	{name: "core.run_ns_per_pop.multiserver", unit: "ns/pop", better: "lower"},
	{name: "core.run_ns_per_pop.mvasd", unit: "ns/pop", better: "lower"},
	{name: "core.extend_ns_per_pop", unit: "ns/pop", better: "lower"},
	{name: "core.recover_us_per_row", unit: "us/row", better: "lower"},
	{name: "core.step_allocs", unit: "allocs/op", better: "lower"},
	{name: "cluster.forward_us", unit: "us", better: "lower"},
	{name: "cluster.owner_us", unit: "us", better: "lower"},
	{name: "cluster.hop_us", unit: "us", better: "lower"},
	{name: "cluster.forward_allocs", unit: "allocs/op", better: "lower"},
	{name: "cluster.forwards_per_req", unit: "1/req", better: "lower"},
	{name: "cluster.forward_failure_ratio", unit: "ratio", better: "lower"},
	{name: "cluster.hedges_per_req", unit: "1/req", better: "lower"},
	{name: "http.overhead_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}
