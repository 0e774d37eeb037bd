package cluster

import (
	"net/http"
	"testing"

	"repro/internal/promtest"
)

// TestClusterPrometheusExpositionLint drives forwarded traffic through a
// cluster entry node and lints its full /metrics exposition — the cluster
// and trace-store families ride on the same scrape as the server's own, so
// they go through the same strict rules, including one contiguous group per
// family.
func TestClusterPrometheusExpositionLint(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	entry := nodes[0]

	// One forwarded solve (lands a forward-duration observation) and one
	// locally-owned solve would be ideal, but a forwarded one alone touches
	// every cluster family.
	req, _ := remoteOwnedRequest(t, nodes, entry)
	resp, solved := postJSON(t, "http://"+entry.addr+"/v1/solve", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, solved)
	}

	body := string(getBody(t, "http://"+entry.addr+"/metrics"))
	families := promtest.ParseExposition(t, body)
	promtest.RequireFamilies(t, families,
		"solverd_cluster_ring_nodes", "solverd_cluster_peer_up",
		"solverd_cluster_breaker_open", "solverd_cluster_breaker_opens_total",
		"solverd_cluster_forwards_total", "solverd_cluster_forward_failures_total",
		"solverd_cluster_hedges_total", "solverd_cluster_local_fallbacks_total",
		"solverd_cluster_peer_fill_hits_total", "solverd_cluster_peer_fill_misses_total",
		"solverd_cluster_redirects_total",
		"solverd_cluster_forward_duration_seconds",
		"solverd_admission_mode", "solverd_admission_admitted_total",
		"solverd_admission_over_capacity_total", "solverd_admission_shed_total",
		"solverd_admission_redirected_total", "solverd_admission_coalesced_total",
		"solverd_admission_coalesce_waiters",
		"solverd_trace_store_traces", "solverd_trace_store_spans",
		"solverd_trace_store_bytes", "solverd_trace_store_evictions_total",
		"solverd_trace_store_kept_total", "solverd_trace_store_dropped_total",
		"solverd_self_windows_total", "solverd_self_sampled_requests_total",
		"solverd_self_headroom", "solverd_self_shed_advised",
		"solverd_self_deviation_ratio", "solverd_self_request_seconds",
		"solverd_journal_events_stored", "solverd_journal_events_total",
		"solverd_journal_events_evicted_total",
		"solverd_profile_capture_total", "solverd_profile_capture_failures_total",
		"solverd_profile_capture_skipped_total", "solverd_profile_capture_stored",
		"solverd_profile_capture_last_unix_seconds",
	)
	promtest.LintFamilies(t, families)
	// The entry node has two remote peers, so the per-peer families are
	// multi-series groups; the schema (family order, TYPE, HELP, label names)
	// is pinned byte for byte.
	promtest.RequireSchema(t, body, "testdata/metrics_schema.golden")

	// The forward-duration histogram exposes every outcome label, observed or
	// not, and the forwarded solve landed exactly one "ok" observation.
	for _, outcome := range forwardOutcomes {
		c := promtest.HistogramCount(t, families, "solverd_cluster_forward_duration_seconds",
			promtest.Label{Name: "outcome", Value: outcome})
		if c < 0 {
			t.Errorf("no forward-duration series for outcome %q", outcome)
		}
		if outcome == "ok" && c < 1 {
			t.Errorf(`outcome="ok" count = %g, want >= 1`, c)
		}
	}
	if v := promtest.SingleValue(t, families, "solverd_cluster_forwards_total"); v < 1 {
		t.Errorf("forwards = %g, want >= 1", v)
	}
	if v := promtest.SingleValue(t, families, "solverd_trace_store_kept_total"); v < 1 {
		t.Errorf("trace store kept = %g, want >= 1", v)
	}
}
