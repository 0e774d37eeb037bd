package server

import (
	"strings"
	"testing"

	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/promtest"
)

// TestPrometheusExpositionLint exercises the service, scrapes /metrics, and
// lints every emitted family through the shared promtest rules: HELP and
// TYPE present, legal metric/label names, and — for histograms — cumulative
// bucket monotonicity with a terminal +Inf bucket matching _count. The
// exposition's schema must match testdata/metrics_schema.golden.
func TestPrometheusExpositionLint(t *testing.T) {
	// A keep-all recorder so the trace-store gauges are part of the linted
	// exposition.
	rec := obs.New(obs.Config{Node: "lint", SampleRate: 1})
	_, ts := newTestServer(t, Config{Recorder: rec})

	// Generate traffic so every family has samples: a miss, a hit, an MVASD
	// solve per demand axis (the throughput axis feeds the fixed-point
	// histogram) and a status probe.
	postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{Model: testModel(), MaxN: 40})
	postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{Model: testModel(), MaxN: 40})
	postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoMVASD, Model: testModel(), Samples: testSamples(), MaxN: 30})
	postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoMVASD, Model: testModel(), Samples: testSamples(),
		DemandAxis: modelio.AxisThroughput, MaxN: 25})
	getBody(t, ts.URL+"/v1/status")
	getBody(t, ts.URL+"/healthz")

	// Estimation traffic, so the solverd_estimate_* and deviation families
	// carry real series (their writers expose the families even with none):
	// ingest + fit, then a system check against the fresh snapshot, then a
	// whatif through the solve cache.
	req := observeBody(t, estTestModel(), estTruth(1), 8, true, 0)
	req.Fit = true
	postObserve(t, ts, req)
	postObserve(t, ts, observeBody(t, estTestModel(), estTruth(1), 1, false, 15))
	getWhatIf(t, ts, "station=db/disk&maxN=30")

	resp, body := getBody(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	families := promtest.ParseExposition(t, body)
	if len(families) < 10 {
		t.Fatalf("only %d families emitted:\n%s", len(families), body)
	}

	// Families the exposition must always include.
	promtest.RequireFamilies(t, families,
		"solverd_requests_total", "solverd_request_duration_seconds",
		"solverd_cache_hits_total", "solverd_cache_misses_total",
		"solverd_cache_hit_ratio", "solverd_cache_entries",
		"solverd_solves_total", "solverd_solve_extends_total",
		"solverd_in_flight_solves",
		"solverd_solve_step_populations_total",
		"solverd_mvasd_fixedpoint_iterations",
		"solverd_mvasd_fixedpoint_failures_total",
		"solverd_solve_progress",
		"solverd_build_info", "solverd_goroutines", "solverd_heap_inuse_bytes",
		"solverd_trace_store_traces", "solverd_trace_store_spans",
		"solverd_trace_store_bytes", "solverd_trace_store_evictions_total",
		"solverd_trace_store_kept_total", "solverd_trace_store_dropped_total",
		"solverd_prediction_deviation_ratio",
		"solverd_prediction_deviation_ratio_mean",
		"solverd_prediction_deviation_exceeded_total",
		"solverd_monitor_deviation_breaches_total",
		"solverd_estimate_samples_total",
		"solverd_estimate_samples_rejected_total",
		"solverd_estimate_cell_resets_total",
		"solverd_estimate_cells",
		"solverd_estimate_fit_ready_cells",
		"solverd_estimate_fit_residual",
		"solverd_estimate_snapshot_version",
		"solverd_estimate_fits_total",
		"solverd_estimate_reestimate_triggers_total",
		"solverd_estimate_cache_invalidations_total",
		"solverd_self_windows_total",
		"solverd_self_empty_windows_total",
		"solverd_self_sampled_requests_total",
		"solverd_self_refits_total",
		"solverd_self_in_flight",
		"solverd_self_snapshot_version",
		"solverd_self_observed_throughput",
		"solverd_self_predicted_throughput",
		"solverd_self_observed_p50_seconds",
		"solverd_self_observed_p99_seconds",
		"solverd_self_predicted_p50_seconds",
		"solverd_self_predicted_p99_seconds",
		"solverd_self_saturated",
		"solverd_self_knee_concurrency",
		"solverd_self_p99_limit_concurrency",
		"solverd_self_max_safe_concurrency",
		"solverd_self_headroom",
		"solverd_self_shed_advised",
		"solverd_self_deviation_ratio",
		"solverd_self_deviation_breaches_total",
		"solverd_self_request_seconds",
		"solverd_admission_mode",
		"solverd_admission_admitted_total",
		"solverd_admission_over_capacity_total",
		"solverd_admission_shed_total",
		"solverd_admission_redirected_total",
		"solverd_admission_coalesced_total",
		"solverd_admission_coalesce_waiters",
		"solverd_journal_events_stored",
		"solverd_journal_events_total",
		"solverd_journal_events_evicted_total",
		"solverd_profile_capture_total",
		"solverd_profile_capture_failures_total",
		"solverd_profile_capture_skipped_total",
		"solverd_profile_capture_stored",
		"solverd_profile_capture_last_unix_seconds",
	)

	promtest.LintFamilies(t, families)
	// Family order, TYPE, HELP text and label names are pinned byte for byte.
	promtest.RequireSchema(t, body, "testdata/metrics_schema.golden")

	// Spot-check semantics: the cache series saw the hit and the miss, the
	// step counter advanced, the MVASD histogram observed fixed points
	// without failures, and the flight recorder retained the solves.
	if v := promtest.SingleValue(t, families, "solverd_cache_hits_total"); v < 1 {
		t.Errorf("cache hits = %g", v)
	}
	if v := promtest.SingleValue(t, families, "solverd_solve_step_populations_total"); v < 95 {
		t.Errorf("step populations = %g, want >= 95 (40 + 30 + 25)", v)
	}
	if v := promtest.SingleValue(t, families, "solverd_mvasd_fixedpoint_failures_total"); v != 0 {
		t.Errorf("fixed-point failures = %g", v)
	}
	// The throughput-axis solve resolved one fixed point per population.
	if fpCount := promtest.HistogramCount(t, families, "solverd_mvasd_fixedpoint_iterations"); fpCount < 25 {
		t.Errorf("fixed-point histogram count = %g, want >= 25", fpCount)
	}
	if v := promtest.SingleValue(t, families, "solverd_trace_store_traces"); v < 4 {
		t.Errorf("trace store traces = %g, want >= 4 recorded solves", v)
	}
	if v := promtest.SingleValue(t, families, "solverd_trace_store_dropped_total"); v != 0 {
		t.Errorf("trace store dropped %g traces with SampleRate 1", v)
	}
	bi := families["solverd_build_info"].Samples
	if len(bi) != 1 || len(bi[0].Labels) != 2 || bi[0].Value != 1 {
		t.Errorf("build info sample: %+v", bi)
	}
	// The estimation traffic produced one fit, exposed per station.
	if v := promtest.SingleValue(t, families, "solverd_estimate_snapshot_version"); v != 1 {
		t.Errorf("estimate snapshot version = %g, want 1", v)
	}
	if n := len(families["solverd_estimate_samples_total"].Samples); n != 3 {
		t.Errorf("estimate samples series = %d, want one per station", n)
	}
	if n := len(families["solverd_monitor_deviation_breaches_total"].Samples); n != 2 {
		t.Errorf("breach counter series = %d, want both bounds", n)
	}
	// The self-model sampled every solve-shaped request to completion, and
	// its deviation families expose one series per self metric from the
	// first scrape.
	if v := promtest.SingleValue(t, families, "solverd_self_sampled_requests_total"); v < 4 {
		t.Errorf("self sampled requests = %g, want >= 4 solves", v)
	}
	if n := len(families["solverd_self_deviation_ratio"].Samples); n != 3 {
		t.Errorf("self deviation series = %d, want one per metric", n)
	}
	if c := promtest.HistogramCount(t, families, "solverd_self_request_seconds"); c < 4 {
		t.Errorf("self request histogram count = %g, want >= 4", c)
	}
}

// TestMetricsLabelEscaping registers station names carrying runes Go's %q
// would escape (tab, \x01, U+2028) next to the three the exposition format
// escapes (", \ and newline). The scrape must use only the format's escapes
// (the promtest parser rejects any other), and every solverd_estimate_*
// station label must read back as the exact station name.
func TestMetricsLabelEscaping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	names := []string{"web\tcpu\x01é", "app\u2028\"cpu\"", `db\disk` + "\nraid"}
	m := estTestModel()
	for i := range m.Stations {
		m.Stations[i].Name = names[i]
	}
	req := observeBody(t, m, estTruth(1), 8, true, 0)
	req.Fit = true
	postObserve(t, ts, req)

	_, body := getBody(t, ts.URL+"/metrics")
	families := promtest.ParseExposition(t, body)
	for _, name := range []string{
		"solverd_estimate_samples_total", "solverd_estimate_samples_rejected_total",
		"solverd_estimate_cell_resets_total", "solverd_estimate_cells",
		"solverd_estimate_fit_ready_cells", "solverd_estimate_fit_residual",
	} {
		f := families[name]
		if f == nil || len(f.Samples) != len(names) {
			t.Fatalf("%s: %+v, want one series per station", name, f)
		}
		for i, s := range f.Samples {
			if got := s.Label("station"); got != names[i] {
				t.Errorf("%s station label %d = %q, want %q", name, i, got, names[i])
			}
		}
	}
}
