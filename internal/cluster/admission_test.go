package cluster

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/selfmodel"
	"repro/internal/server"
)

// clusterTruth mirrors the selfmodel ground truth at the test nodes' worker
// count (startClusterTuned boots every server with Workers: 4).
const (
	clusterTruthWorkers = 4
	clusterTruthDW      = 0.010
	clusterTruthDD      = 0.030
	clusterTruthMaxN    = 64
)

// makeNodeReady feeds one node's self-model synthetic ground-truth windows
// until it is ready and returns its predicted MaxSafeN.
func makeNodeReady(t *testing.T, srv *server.Server) int {
	t.Helper()
	dm := core.FuncDemands{K: 2, F: func(k, _ int) float64 {
		if k == 0 {
			return clusterTruthDW
		}
		return clusterTruthDD
	}}
	sol, err := core.NewMVASDSolver(selfmodel.SelfModel(clusterTruthWorkers), dm, core.MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Release()
	if err := sol.Run(clusterTruthMaxN); err != nil {
		t.Fatal(err)
	}
	res := sol.Result()

	m := srv.SelfMonitor()
	var rep *selfmodel.Report
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} {
		x := res.X[n-1]
		cycle := res.Cycle[n-1]
		lat := make([]time.Duration, 32)
		for i := range lat {
			lat[i] = time.Duration(cycle * float64(time.Second))
		}
		w := selfmodel.Window{
			Elapsed:         time.Second,
			Completions:     x,
			BusySeconds:     x * clusterTruthDW,
			StationSeconds:  x * res.ResidenceRow(n - 1)[0],
			InFlightSeconds: float64(n),
			Latencies:       lat,
		}
		for i := 0; i < m.Config().Estimate.MinSamples; i++ {
			rep = m.ObserveWindow(w)
		}
	}
	if rep == nil || !rep.Ready || rep.MaxSafeN <= 0 {
		t.Fatalf("self-model not ready: %+v", rep)
	}
	return rep.MaxSafeN
}

// TestClusterOverloadRedirectsThenSheds drives one enforce-mode node past its
// predicted knee and checks the fleet's graceful-degradation ladder: first a
// redirect to a ring peer with advertised headroom, then — with the whole
// fleet saturated — a shed with 429 + Retry-After. The client never sees a
// 5xx at any point.
func TestClusterOverloadRedirectsThenSheds(t *testing.T) {
	const redirectTTL = 50 * time.Millisecond
	nodes := startClusterTuned(t, 3,
		func(c *Config) { c.RedirectTTL = redirectTTL },
		func(_ string, c *server.Config) {
			c.Self = selfmodel.Config{MaxN: clusterTruthMaxN}
			c.Admission = admission.Config{Mode: admission.ModeEnforce}
		})
	safe := 0
	for _, n := range nodes {
		safe = makeNodeReady(t, n.srv)
	}

	// Every client-visible status in this test feeds the zero-5xx assertion.
	var mu sync.Mutex
	var statuses []int
	record := func(code int) {
		mu.Lock()
		statuses = append(statuses, code)
		mu.Unlock()
	}

	req := solveRequest(1, 50)
	key := keyOf(t, req)
	owners := nodes[0].gw.Ring().Owners(key, 1)
	var owner *testNode
	for _, n := range nodes {
		if n.addr == owners[0] {
			owner = n
		}
	}
	if owner == nil {
		t.Fatalf("owner %s not among the nodes", owners[0])
	}

	// Saturate the owner: `safe` phantom in-flight requests make the next
	// arrival the one past the predicted safe concurrency.
	for i := 0; i < safe; i++ {
		owner.srv.SelfMonitor().RequestBegin()
	}

	// Overloaded owner, fleet has headroom: the request is redirected to a
	// peer and succeeds — the client sees a plain 200.
	resp, body := postJSON(t, "http://"+owner.addr+"/v1/solve", req, nil)
	record(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("redirected solve: status %d: %s", resp.StatusCode, body)
	}
	servedBy := resp.Header.Get(headerPeer)
	if servedBy == "" || servedBy == owner.addr {
		t.Fatalf("X-Cluster-Peer %q, want a redirect target other than the owner", servedBy)
	}
	var out modelio.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trajectory == nil || len(out.Trajectory.X) != 50 {
		t.Fatalf("redirected solve truncated: %+v", out.Trajectory)
	}
	metrics := getBody(t, "http://"+owner.addr+"/metrics")
	if v := metricValue(t, metrics, "solverd_admission_redirected_total"); v != 1 {
		t.Errorf("solverd_admission_redirected_total = %v, want 1", v)
	}
	if v := metricValue(t, metrics, "solverd_cluster_redirects_total"); v != 1 {
		t.Errorf("solverd_cluster_redirects_total = %v, want 1", v)
	}
	if v := metricValue(t, metrics, "solverd_admission_shed_total"); v != 0 {
		t.Errorf("solverd_admission_shed_total = %v, want 0 while the fleet has headroom", v)
	}
	// The refusal dropped its self-model sample on the owner: only the
	// phantoms remain in flight.
	if got := owner.srv.SelfMonitor().InFlight(); got != safe {
		t.Errorf("owner in-flight after redirect: %d, want %d phantoms", got, safe)
	}

	// Saturate the rest of the fleet and let the cached headroom view expire:
	// now there is nowhere to run, and the overload answer is a shed.
	for _, n := range nodes {
		if n != owner {
			for i := 0; i < safe; i++ {
				n.srv.SelfMonitor().RequestBegin()
			}
		}
	}
	time.Sleep(redirectTTL + 20*time.Millisecond)

	shedResp, shedBody := postJSON(t, "http://"+owner.addr+"/v1/solve", req, nil)
	record(shedResp.StatusCode)
	if shedResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fleet-exhausted solve: status %d, want 429: %s", shedResp.StatusCode, shedBody)
	}
	if ra, err := strconv.Atoi(shedResp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", shedResp.Header.Get("Retry-After"))
	}

	// A burst against the saturated fleet degrades uniformly: every answer is
	// a 429, never a 5xx, regardless of entry node.
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, "http://"+nodes[i%len(nodes)].addr+"/v1/solve", req, nil)
			record(resp.StatusCode)
		}(i)
	}
	wg.Wait()

	metrics = getBody(t, "http://"+owner.addr+"/metrics")
	if v := metricValue(t, metrics, "solverd_admission_shed_total"); v < 1 {
		t.Errorf("solverd_admission_shed_total = %v, want >= 1 after fleet exhaustion", v)
	}

	// The fleet view aggregates the admission counters.
	var fleet modelio.ClusterSelfResponse
	if err := json.Unmarshal(getBody(t, "http://"+owner.addr+"/cluster/v1/self"), &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.FleetRedirected < 1 || fleet.FleetShed < 1 {
		t.Errorf("fleet admission totals: redirected=%d shed=%d, want both >= 1",
			fleet.FleetRedirected, fleet.FleetShed)
	}

	// Drain the phantoms: the fleet recovers and admits again.
	for _, n := range nodes {
		for i := 0; i < safe; i++ {
			n.srv.SelfMonitor().RequestEnd(10 * time.Millisecond)
		}
	}
	resp, body = postJSON(t, "http://"+owner.addr+"/v1/solve", req, nil)
	record(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain solve: status %d: %s", resp.StatusCode, body)
	}

	for _, code := range statuses {
		if code >= 500 {
			t.Fatalf("client saw a 5xx (%d) during overload; statuses: %v", code, statuses)
		}
	}
}
