package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/interp"
	"repro/internal/modelio"
	"repro/internal/queueing"
)

// estTestModel is the network the estimation endpoint tests stream against:
// short think time and a db demand growing with n, so drift moves measured
// throughput far past the 3% bound at the concurrencies tested.
func estTestModel() *queueing.Model {
	return &queueing.Model{
		Name:      "est-srv",
		ThinkTime: 0.2,
		Stations: []queueing.Station{
			{Name: "web/cpu", Kind: queueing.CPU, Servers: 2, Visits: 1, ServiceTime: 0.05},
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 2, Visits: 1, ServiceTime: 0.06},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.08},
		},
	}
}

// estTruth is a linear-in-n demand law scaled by drift; linear data survives
// the estimator's PCHIP/Chebyshev fit exactly, keeping assertions float-exact.
func estTruth(scale float64) core.FuncDemands {
	base := []float64{0.05, 0.06, 0.08}
	slope := []float64{0, 0.001, 0.002}
	return core.FuncDemands{K: 3, F: func(k, n int) float64 {
		return scale * (base[k] + slope[k]*float64(n-1))
	}}
}

var estLevels = []int{1, 2, 4, 7, 11, 15, 18, 20}

// observeBody synthesizes one /v1/observe body from the truth via the
// Service Demand Law (per samples at every station × concurrency), plus an
// optional system measurement at sysN.
func observeBody(t *testing.T, m *queueing.Model, truth core.FuncDemands, per int, withModel bool, sysN int) modelio.ObserveRequest {
	t.Helper()
	ref, err := core.MVASD(m, 20, truth, core.MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var req modelio.ObserveRequest
	if withModel {
		req.Model = m
	}
	for _, n := range estLevels {
		x, _, _, err := ref.At(n)
		if err != nil {
			t.Fatal(err)
		}
		for k, st := range m.Stations {
			for i := 0; i < per; i++ {
				req.Samples = append(req.Samples, modelio.ObserveSample{
					Station: st.Name, Concurrency: n,
					Utilization: truth.F(k, n) * x, Throughput: x,
				})
			}
		}
	}
	if sysN > 0 {
		x, _, cyc, err := ref.At(sysN)
		if err != nil {
			t.Fatal(err)
		}
		req.System = []modelio.SystemSample{{Concurrency: sysN, Throughput: x, CycleTime: cyc}}
	}
	return req
}

func postObserve(t *testing.T, ts *httptest.Server, req modelio.ObserveRequest) modelio.ObserveResponse {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/observe", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status %d: %s", resp.StatusCode, body)
	}
	var out modelio.ObserveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getDemands(t *testing.T, ts *httptest.Server) modelio.DemandsResponse {
	t.Helper()
	resp, body := getBody(t, ts.URL+"/v1/demands")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("demands status %d: %s", resp.StatusCode, body)
	}
	var out modelio.DemandsResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getWhatIf(t *testing.T, ts *httptest.Server, query string) modelio.WhatIfResponse {
	t.Helper()
	resp, body := getBody(t, ts.URL+"/v1/whatif?"+query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif status %d: %s", resp.StatusCode, body)
	}
	var out modelio.WhatIfResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// estServerConfig keeps the estimator deterministic for these tests: Alpha 1
// snaps cells to the latest accepted sample, MinSamples 4 matches the fed
// batch sizes.
func estServerConfig() Config {
	return Config{Estimate: estimate.Config{Alpha: 1, MinSamples: 4}}
}

func TestObserveDemandsWhatIfFlow(t *testing.T) {
	_, ts := newTestServer(t, estServerConfig())
	m := estTestModel()

	// Before any registration: demands answers a zero skeleton, whatif and
	// model-less observe refuse.
	if d := getDemands(t, ts); d.SnapshotVersion != 0 || d.Samples != nil {
		t.Fatalf("pre-registration demands: %+v", d)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/whatif?station=db/disk"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("whatif without estimator: status %d", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/observe", modelio.ObserveRequest{
		Samples: []modelio.ObserveSample{{Station: "db/disk", Concurrency: 1, Utilization: 0.1, Throughput: 1}},
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("model-less first observe: status %d: %s", resp.StatusCode, body)
	}

	// Register + ingest + fit in one request.
	truth := estTruth(1)
	req := observeBody(t, m, truth, 4, true, 0)
	req.Fit = true
	out := postObserve(t, ts, req)
	if out.Accepted != 4*3*len(estLevels) || out.Rejected != 0 || len(out.Errors) != 0 {
		t.Fatalf("ingest: %+v", out)
	}
	if out.SnapshotVersion != 1 || out.FitError != "" {
		t.Fatalf("fit: version=%d err=%q", out.SnapshotVersion, out.FitError)
	}

	// Unknown stations surface per sample, not as a batch failure.
	out = postObserve(t, ts, modelio.ObserveRequest{
		Samples: []modelio.ObserveSample{
			{Station: "nope", Concurrency: 1, Utilization: 0.1, Throughput: 1},
			{Station: "db/disk", Concurrency: 4, Utilization: truth.F(2, 4) * 9, Throughput: 9},
		},
	})
	if out.Accepted != 1 || len(out.Errors) != 1 || out.Errors[0].Index != 0 {
		t.Fatalf("mixed batch: %+v", out)
	}

	// /v1/demands returns the fitted curves and a solve-ready payload.
	d := getDemands(t, ts)
	if d.SnapshotVersion != 1 || d.Interp != string(interp.PCHIP) {
		t.Fatalf("demands: version=%d interp=%q", d.SnapshotVersion, d.Interp)
	}
	if len(d.Stations) != 3 || len(d.Health) != 3 || d.Samples == nil || d.Model == nil {
		t.Fatalf("demands payload incomplete: %+v", d)
	}
	// Fitted nodes reproduce the linear truth to within ingest rounding:
	// D = U/X = (d·x)/x costs at most one ulp per sample.
	for k, st := range d.Stations {
		for i, node := range st.Nodes {
			want := truth.F(k, int(node))
			if diff := st.Demands[i] - want; diff > 1e-12*want || diff < -1e-12*want {
				t.Errorf("station %q D(%g) = %g, want %g", st.Name, node, st.Demands[i], want)
			}
		}
	}
	if d.Triggers["manual"] != 1 {
		t.Errorf("triggers = %v", d.Triggers)
	}

	// /v1/whatif: which N saturates the db tier?
	wi := getWhatIf(t, ts, "station=db/disk&util=0.95&maxN=40")
	if !wi.Saturated || wi.SaturationN < 2 || wi.SaturationN > 20 {
		t.Fatalf("whatif saturation: %+v", wi)
	}
	if wi.Bottleneck != "db/disk" || wi.SnapshotVersion != 1 || wi.Utilization < 0.95 {
		t.Fatalf("whatif: %+v", wi)
	}

	// Acceptance criterion: the whatif answer matches an offline MVASD solve
	// on the served fitted curves float for float.
	samples, err := d.Samples.ToDemandSamples(d.Model)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := core.NewCurveDemands(interp.Method(d.Interp), samples, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := core.MVASD(d.Model, 40, dm, core.MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ox, _, ocyc, _ := offline.At(wi.N)
	if wi.X != ox || wi.Cycle != ocyc {
		t.Fatalf("whatif (X=%v, C=%v) != offline (X=%v, C=%v)", wi.X, wi.Cycle, ox, ocyc)
	}
	for n := 1; n <= 40; n++ {
		if offline.UtilRow(n - 1)[2] >= 0.95 {
			if n != wi.SaturationN {
				t.Fatalf("offline saturation at n=%d, whatif said %d", n, wi.SaturationN)
			}
			break
		}
	}

	// What if the db tier had two more replicas? Saturation moves out (or
	// disappears) and the solve covers the larger capacity.
	wi3 := getWhatIf(t, ts, "station=db/disk&util=0.95&maxN=40&servers=db/disk=3")
	if wi3.Saturated && wi3.SaturationN <= wi.SaturationN {
		t.Fatalf("3 replicas saturate at n=%d, not later than %d", wi3.SaturationN, wi.SaturationN)
	}
	if wi3.Servers["db/disk"] != 3 {
		t.Fatalf("override echo: %+v", wi3.Servers)
	}

	// Same query again: served from the cache.
	if again := getWhatIf(t, ts, "station=db/disk&util=0.95&maxN=40"); !again.Cached || again.X != wi.X {
		t.Fatalf("repeat whatif not cached or changed: %+v", again)
	}

	// Bad queries.
	for _, q := range []string{
		"util=0.5",                 // missing station
		"station=nope",             // unknown station
		"station=db/disk&util=1.5", // util out of range
		"station=db/disk&maxN=0",   // bad maxN
		"station=db/disk&servers=nope=2",
		"station=db/disk&servers=db/disk=zero",
	} {
		if resp, _ := getBody(t, ts.URL+"/v1/whatif?"+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
	if resp, _ := getBody(t, ts.URL+"/v1/whatif?station=db/disk&maxN=999999"); resp.StatusCode != http.StatusBadRequest {
		t.Error("maxN past the server cap not rejected")
	}
}

// TestObserveBreachInvalidatesCache is the server half of the closed loop: a
// system measurement that breaches the 3% bound triggers re-estimation AND
// evicts the solve-cache entries built from the stale snapshot.
func TestObserveBreachInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, estServerConfig())
	m := estTestModel()

	req := observeBody(t, m, estTruth(1), 4, true, 0)
	req.Fit = true
	if out := postObserve(t, ts, req); out.SnapshotVersion != 1 {
		t.Fatalf("initial fit: %+v", out)
	}

	// Steady state: the system check passes, nothing re-estimates.
	out := postObserve(t, ts, observeBody(t, m, estTruth(1), 4, false, 15))
	if len(out.Checks) != 1 || out.Checks[0].ThroughputBreach || out.Checks[0].Reestimated {
		t.Fatalf("steady-state check: %+v", out.Checks)
	}

	// Populate the cache from the current snapshot.
	wi := getWhatIf(t, ts, "station=db/disk&maxN=30")
	if wi.SnapshotVersion != 1 {
		t.Fatalf("whatif version: %+v", wi)
	}
	if got := s.cache.len(); got != 1 {
		t.Fatalf("cache entries = %d, want the whatif solve", got)
	}

	// Drift ×1.25, then report the drifted system measurement: breach →
	// re-fit → stale entry evicted.
	drifted := observeBody(t, m, estTruth(1.25), 4, false, 15)
	out = postObserve(t, ts, drifted)
	check := out.Checks[0]
	if !check.ThroughputBreach || !check.Reestimated || check.Error != "" {
		t.Fatalf("drifted check: %+v", check)
	}
	if out.SnapshotVersion != 2 {
		t.Fatalf("snapshot version after breach = %d, want 2", out.SnapshotVersion)
	}
	if got := s.cache.len(); got != 0 {
		t.Fatalf("stale cache entries remain: %d", got)
	}
	if got := s.estimate.invalidations.Load(); got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
	if len(s.estimate.keys) > 1 {
		t.Fatalf("stale key versions tracked: %v", s.estimate.keys)
	}

	// Post-refit: predictions are back under the bound, whatif answers from
	// the new snapshot.
	out = postObserve(t, ts, observeBody(t, m, estTruth(1.25), 4, false, 15))
	if c := out.Checks[0]; c.ThroughputBreach || c.CycleBreach || c.ThroughputDeviation > 1e-9 {
		t.Fatalf("post-refit check: %+v", c)
	}
	if wi := getWhatIf(t, ts, "station=db/disk&maxN=30"); wi.SnapshotVersion != 2 || wi.Cached {
		t.Fatalf("post-refit whatif: %+v", wi)
	}

	// The breach also shows on the alertable counter and trigger metrics.
	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`solverd_monitor_deviation_breaches_total{bound="throughput"} 1`,
		`solverd_estimate_reestimate_triggers_total{reason="throughput"} 1`,
		"solverd_estimate_cache_invalidations_total 1",
		"solverd_estimate_snapshot_version 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestObserveModelSwapResetsEstimator: registering a structurally different
// model rebuilds the estimator and retires every estimate-backed cache entry.
func TestObserveModelSwapResetsEstimator(t *testing.T) {
	s, ts := newTestServer(t, estServerConfig())
	m := estTestModel()
	req := observeBody(t, m, estTruth(1), 4, true, 0)
	req.Fit = true
	postObserve(t, ts, req)
	getWhatIf(t, ts, "station=db/disk&maxN=30")
	if s.cache.len() != 1 {
		t.Fatal("whatif did not populate the cache")
	}

	m2 := estTestModel()
	m2.Stations[2].Servers = 2 // a different shape
	out := postObserve(t, ts, modelio.ObserveRequest{
		Model: m2,
		Samples: []modelio.ObserveSample{
			{Station: "db/disk", Concurrency: 5, Utilization: 0.4, Throughput: 5},
		},
	})
	if out.SnapshotVersion != 0 {
		t.Fatalf("fresh estimator version = %d", out.SnapshotVersion)
	}
	if got := s.cache.len(); got != 0 {
		t.Fatalf("old model's cache entries remain: %d", got)
	}
	d := getDemands(t, ts)
	if d.SnapshotVersion != 0 || len(d.Health) != 3 || d.Health[2].Accepted != 1 {
		t.Fatalf("post-swap demands: %+v", d)
	}
}
