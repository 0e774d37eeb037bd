package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/queueing"
	"repro/internal/server"
)

// testNode is one in-process solverd + gateway on a real loopback listener.
type testNode struct {
	addr   string
	srv    *server.Server
	gw     *Gateway
	rec    *obs.Recorder
	cancel context.CancelFunc
	done   chan error
}

// kill shuts the node down (listener closed, in-flight drained) and waits.
func (n *testNode) kill(t *testing.T) {
	t.Helper()
	n.cancel()
	select {
	case <-n.done:
		close(n.done) // let the cluster-wide cleanup skip this node instantly
	case <-time.After(5 * time.Second):
		t.Fatalf("node %s did not shut down", n.addr)
	}
}

// startCluster boots n nodes on loopback listeners. Listeners are created
// first so every node knows the full peer list before serving. tune may
// adjust each node's cluster config before wiring.
func startCluster(t testing.TB, n int, tune func(c *Config)) []*testNode {
	t.Helper()
	return startClusterTuned(t, n, tune, nil)
}

// startClusterTuned is startCluster with a second hook adjusting each node's
// server config (the admission tests arm the gate and the self-model; the
// journal tests give each node its own event journal named after its addr).
func startClusterTuned(t testing.TB, n int, tune func(c *Config), tuneSrv func(addr string, c *server.Config)) []*testNode {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		// SampleRate 1: every test request is retained, so trace assertions
		// never depend on the sampling hash of a particular ID.
		rec := obs.New(obs.Config{Node: addrs[i], SampleRate: 1})
		srvCfg := server.Config{
			CacheSize:       64,
			MaxN:            10_000,
			Workers:         4,
			RequestTimeout:  20 * time.Second,
			ShutdownTimeout: 2 * time.Second,
			Logger:          logger,
			Recorder:        rec,
		}
		if tuneSrv != nil {
			tuneSrv(addrs[i], &srvCfg)
		}
		srv := server.New(srvCfg)
		cfg := Config{
			Self:          addrs[i],
			Peers:         addrs,
			Replication:   2,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  250 * time.Millisecond,
			FailAfter:     2,
			RecoverAfter:  1,
			MaxAttempts:   1,
			RetryBackoff:  5 * time.Millisecond,
			// A long hedge floor keeps hedging out of tests that assert
			// which node served; the failover path does not depend on it
			// (dead peers fail fast with a connection error).
			HedgeMin:         2 * time.Second,
			BreakerThreshold: 2,
			BreakerCooldown:  10 * time.Second,
			FillTimeout:      5 * time.Second,
			Logger:           logger,
		}
		if tune != nil {
			tune(&cfg)
		}
		gw, err := New(srv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		gw.Start(ctx)
		node := &testNode{addr: addrs[i], srv: srv, gw: gw, rec: rec, cancel: cancel, done: make(chan error, 1)}
		go func(ln net.Listener) { node.done <- srv.Serve(ctx, ln) }(listeners[i])
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.cancel()
			select {
			case <-node.done:
			case <-time.After(5 * time.Second):
			}
		}
	})
	return nodes
}

func testModel(thinkTime float64) *queueing.Model {
	return &queueing.Model{
		Name:      "cluster-test",
		ThinkTime: thinkTime,
		Stations: []queueing.Station{
			{Name: "web/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 2, ServiceTime: 0.004},
		},
	}
}

func solveRequest(thinkTime float64, maxN int) *modelio.SolveRequest {
	return &modelio.SolveRequest{
		Algorithm: "multiserver",
		Model:     testModel(thinkTime),
		MaxN:      maxN,
	}
}

// keyOf computes the cache key exactly as the servers will.
func keyOf(t *testing.T, req *modelio.SolveRequest) string {
	t.Helper()
	cp := *req
	cp.Model = &*req.Model
	if err := cp.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := cp.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func postJSON(t *testing.T, url string, body any, extraHeaders map[string]string) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range extraHeaders {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// metricValue extracts one un-labelled (or exactly-labelled) series value
// from a Prometheus text exposition.
func metricValue(t *testing.T, metricsBody []byte, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(metricsBody), "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series+" ")), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in metrics", series)
	return 0
}

// cacheKeys lists the cache keys visible on a node's /v1/status.
func cacheKeys(t *testing.T, addr string) map[string]bool {
	t.Helper()
	var status struct {
		Cache []struct {
			Key string `json:"key"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(getBody(t, "http://"+addr+"/v1/status"), &status); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(status.Cache))
	for _, e := range status.Cache {
		out[e.Key] = true
	}
	return out
}

// TestClusterKeyAffinity sends distinct models through one gateway and
// checks each lands on (and is cached by) exactly the node the shared ring
// names as its owner, with repeats served from that owner's cache.
func TestClusterKeyAffinity(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	entry := nodes[0]

	for i := 0; i < 6; i++ {
		req := solveRequest(0.5+float64(i)*0.05, 120)
		key := keyOf(t, req)
		owners := entry.gw.Ring().Owners(key, 2)
		if len(owners) != 2 {
			t.Fatalf("expected 2 owners, got %v", owners)
		}
		resp, body := postJSON(t, "http://"+entry.addr+"/v1/solve", req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, body)
		}
		if peer := resp.Header.Get("X-Cluster-Peer"); peer != owners[0] {
			t.Fatalf("solve %d served by %s, owner is %s", i, peer, owners[0])
		}
		if !cacheKeys(t, owners[0])[key] {
			t.Fatalf("solve %d: owner %s has no cache entry for its key", i, owners[0])
		}

		// The identical request again must be a cache hit on the owner.
		resp2, body2 := postJSON(t, "http://"+entry.addr+"/v1/solve", req, nil)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("repeat solve %d: status %d", i, resp2.StatusCode)
		}
		var sr modelio.SolveResponse
		if err := json.Unmarshal(body2, &sr); err != nil {
			t.Fatal(err)
		}
		if !sr.Cached {
			t.Fatalf("repeat solve %d was not served from the owner's cache", i)
		}
	}
}

// TestClusterSweepFanout routes a planned sweep through the gateway and
// checks the reassembled grid matches a single-node solve of the same sweep.
func TestClusterSweepFanout(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	sweep := &modelio.SweepRequest{
		SolveRequest: modelio.SolveRequest{Algorithm: "multiserver", Model: testModel(1.0)},
		Populations:  []int{40, 90},
		ThinkTimes:   []float64{0.5, 1.0, 1.5},
		Servers:      map[string][]int{"web/cpu": {2, 4}},
	}
	resp, body := postJSON(t, "http://"+nodes[0].addr+"/v1/sweep", sweep, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var got modelio.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.GridSize != 6 || len(got.Points) != 6 {
		t.Fatalf("grid size %d / %d points, want 6", got.GridSize, len(got.Points))
	}

	// Reference: the same sweep served entirely on one node (the forwarded
	// header forces local planning and solving).
	respRef, bodyRef := postJSON(t, "http://"+nodes[1].addr+"/v1/sweep", sweep,
		map[string]string{"X-Cluster-Forwarded": "test"})
	if respRef.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep: status %d", respRef.StatusCode)
	}
	var ref modelio.SweepResponse
	if err := json.Unmarshal(bodyRef, &ref); err != nil {
		t.Fatal(err)
	}
	for i := range got.Points {
		gp, rp := got.Points[i], ref.Points[i]
		if gp.Error != "" || rp.Error != "" {
			t.Fatalf("point %d errored: %q / %q", i, gp.Error, rp.Error)
		}
		if len(gp.Rows) != len(rp.Rows) {
			t.Fatalf("point %d: %d rows vs %d", i, len(gp.Rows), len(rp.Rows))
		}
		for j := range gp.Rows {
			if gp.Rows[j] != rp.Rows[j] {
				t.Fatalf("point %d row %d differs across routing: %+v vs %+v", i, j, gp.Rows[j], rp.Rows[j])
			}
		}
	}
}

// TestClusterSweepGroupsCachedOnOwner: a fabric sweep keys each group
// exactly as a standalone node does, and the group lands in its key's
// owner's cache under that key, so a peer fill of the key finds it.
func TestClusterSweepGroupsCachedOnOwner(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	sweep := &modelio.SweepRequest{
		SolveRequest: modelio.SolveRequest{Algorithm: "multiserver", Model: testModel(1.0)},
		Populations:  []int{40, 90},
		ThinkTimes:   []float64{0.5, 1.0, 1.5},
		Servers:      map[string][]int{"web/cpu": {2, 4, 8}},
	}
	resp, body := postJSON(t, "http://"+nodes[0].addr+"/v1/sweep", sweep, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	if err := sweep.Normalize(); err != nil {
		t.Fatal(err)
	}
	points, err := sweep.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := sweep.KeyBase()
	if err != nil {
		t.Fatal(err)
	}
	byAddr := make(map[string]*testNode, len(nodes))
	for _, n := range nodes {
		byAddr[n.addr] = n
	}
	owners := make(map[string]bool)
	for _, g := range sweep.PlanSweep(points) {
		key := kb.GroupKey(g.Point)
		owner := nodes[0].gw.Ring().Owner(key)
		owners[owner] = true
		if _, _, ok := byAddr[owner].srv.ExportCached(context.Background(), key); !ok {
			t.Errorf("group %+v: key %s is not cached on its owner %s", g.Point, key, owner)
		}
	}
	if len(owners) < 2 {
		t.Errorf("all groups owned by %v; the test needs groups spread over the fabric", owners)
	}
}

// TestClusterFailover kills a key's owner and checks the fabric keeps
// answering with no client-visible 5xx while the dead peer's circuit breaker
// opens. Probing is effectively disabled so the failover comes from the
// forwarding ladder alone (the harder case).
func TestClusterFailover(t *testing.T) {
	nodes := startCluster(t, 3, func(c *Config) {
		c.ProbeInterval = time.Hour
	})
	entry := nodes[0]

	// Find requests owned by a node other than the entry point.
	victimIdx := -1
	var victimReqs []*modelio.SolveRequest
	for i := 0; len(victimReqs) < 6 && i < 400; i++ {
		req := solveRequest(0.3+float64(i)*0.01, 80)
		owner := entry.gw.Ring().Owner(keyOf(t, req))
		if owner == entry.addr {
			continue
		}
		idx := -1
		for j, n := range nodes {
			if n.addr == owner {
				idx = j
			}
		}
		if victimIdx == -1 {
			victimIdx = idx
		}
		if idx == victimIdx {
			victimReqs = append(victimReqs, req)
		}
	}
	if len(victimReqs) < 6 {
		t.Fatalf("could not find enough keys owned by one remote node")
	}
	nodes[victimIdx].kill(t)

	for i, req := range victimReqs {
		resp, body := postJSON(t, "http://"+entry.addr+"/v1/solve", req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after owner death: status %d: %s", i, resp.StatusCode, body)
		}
		if peer := resp.Header.Get("X-Cluster-Peer"); peer == nodes[victimIdx].addr {
			t.Fatalf("request %d claims to be served by the dead node", i)
		}
	}

	metrics := getBody(t, "http://"+entry.addr+"/metrics")
	opens := metricValue(t, metrics,
		fmt.Sprintf("solverd_cluster_breaker_opens_total{peer=%q}", nodes[victimIdx].addr))
	if opens < 1 {
		t.Fatalf("breaker never opened for the dead peer (opens=%v)", opens)
	}
	if fails := metricValue(t, metrics, "solverd_cluster_forward_failures_total"); fails < 1 {
		t.Fatalf("no forward failures recorded (got %v)", fails)
	}
}

// TestClusterMembershipRebuild checks the probe loop: a killed node leaves
// the ring within a few probe intervals.
func TestClusterMembershipRebuild(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	if n := nodes[0].gw.Ring().Len(); n != 3 {
		t.Fatalf("initial ring has %d nodes, want 3", n)
	}
	nodes[2].kill(t)
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].gw.Ring().Len() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ring still has %d nodes after the kill", nodes[0].gw.Ring().Len())
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, n := range nodes[0].gw.Ring().Nodes() {
		if n == nodes[2].addr {
			t.Fatal("dead node still in ring")
		}
	}
}

// TestClusterPeerFillExtend is the acceptance scenario: a trajectory solved
// to population 500 on its owner is transparently reused when another node
// cold-solves the same model to 1500 — the second node fills from the
// owner's cache, extends the remaining 1000 populations, and the result is
// bit-identical to a cold single-node solve of all 1500.
func TestClusterPeerFillExtend(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	req := solveRequest(1.25, 500)
	key := keyOf(t, req)
	owner := nodes[0].gw.Ring().Owner(key)
	var ownerNode, other *testNode
	for _, n := range nodes {
		if n.addr == owner {
			ownerNode = n
		} else if other == nil {
			other = n
		}
	}
	if ownerNode == nil || other == nil {
		t.Fatal("could not split nodes into owner and other")
	}

	// Solve to 500 on the owner (forced local, exactly as a routed request
	// would land there).
	resp, body := postJSON(t, "http://"+ownerNode.addr+"/v1/solve", req,
		map[string]string{"X-Cluster-Forwarded": "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner solve: status %d: %s", resp.StatusCode, body)
	}
	if !cacheKeys(t, ownerNode.addr)[key] {
		t.Fatal("owner did not cache the trajectory")
	}

	// The same model to 1500 on a different node, forced local: its cold
	// solve must fill from the owner and extend.
	req2 := solveRequest(1.25, 1500)
	resp2, body2 := postJSON(t, "http://"+other.addr+"/v1/solve", req2,
		map[string]string{"X-Cluster-Forwarded": "test"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("extend solve: status %d: %s", resp2.StatusCode, body2)
	}
	var sr modelio.SolveResponse
	if err := json.Unmarshal(body2, &sr); err != nil {
		t.Fatal(err)
	}

	metrics := getBody(t, "http://"+other.addr+"/metrics")
	if v := metricValue(t, metrics, "solverd_solve_extends_total"); v != 1 {
		t.Fatalf("solverd_solve_extends_total = %v, want 1 (the peer-filled extend)", v)
	}
	if v := metricValue(t, metrics, "solverd_peer_fill_restores_total"); v != 1 {
		t.Fatalf("solverd_peer_fill_restores_total = %v, want 1", v)
	}
	if v := metricValue(t, metrics, "solverd_cluster_peer_fill_hits_total"); v != 1 {
		t.Fatalf("solverd_cluster_peer_fill_hits_total = %v, want 1", v)
	}

	// Bit-identity against a cold in-process solve of the full range.
	m := testModel(1.25)
	sol, err := core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Release()
	if err := sol.Run(1500); err != nil {
		t.Fatal(err)
	}
	want := modelio.NewTrajectory(sol.Result(), 0)
	got := sr.Trajectory
	if got == nil || len(got.X) != len(want.X) {
		t.Fatalf("trajectory length mismatch: got %d, want %d", len(got.X), len(want.X))
	}
	for i := range want.X {
		if got.X[i] != want.X[i] || got.R[i] != want.R[i] || got.Cycle[i] != want.Cycle[i] {
			t.Fatalf("n=%d: peer-filled extend differs from cold solve: X %v vs %v",
				want.N[i], got.X[i], want.X[i])
		}
	}
	for k := range want.FinalUtil {
		if got.FinalUtil[k] != want.FinalUtil[k] || got.FinalQueueLen[k] != want.FinalQueueLen[k] {
			t.Fatalf("station %d: final rows differ after peer fill", k)
		}
	}
}

// TestClusterSecret checks the shared-secret trust boundary: without the
// secret the fabric endpoints are refused and a forged X-Cluster-Forwarded
// header is ignored (the request still routes to its owner), while requests
// carrying the secret — and the gateway's own forwards — work as in open
// mode.
func TestClusterSecret(t *testing.T) {
	const secret = "squeamish-ossifrage"
	nodes := startCluster(t, 3, func(c *Config) { c.Secret = secret })
	entry := nodes[0]

	resp, _ := postJSON(t, "http://"+entry.addr+"/cluster/v1/export",
		modelio.ExportRequest{Key: "some-key"}, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("export without secret: status %d, want 403", resp.StatusCode)
	}
	statusResp, err := http.Get("http://" + entry.addr + "/cluster/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, statusResp.Body)
	statusResp.Body.Close()
	if statusResp.StatusCode != http.StatusForbidden {
		t.Fatalf("status without secret: status %d, want 403", statusResp.StatusCode)
	}
	// With the secret the same export lookup is admitted (404: unknown key,
	// not 403: untrusted caller).
	resp, _ = postJSON(t, "http://"+entry.addr+"/cluster/v1/export",
		modelio.ExportRequest{Key: "some-key"}, map[string]string{headerSecret: secret})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("export with secret: status %d, want 404", resp.StatusCode)
	}

	// A forged forwarded header (no secret) must not force a local serve:
	// the request routes to its owner exactly like an external one.
	var req *modelio.SolveRequest
	var owner string
	for i := 0; i < 400; i++ {
		cand := solveRequest(0.3+float64(i)*0.01, 60)
		if o := entry.gw.Ring().Owner(keyOf(t, cand)); o != entry.addr {
			req, owner = cand, o
			break
		}
	}
	if req == nil {
		t.Fatal("could not find a key owned by a remote node")
	}
	resp, body := postJSON(t, "http://"+entry.addr+"/v1/solve", req,
		map[string]string{"X-Cluster-Forwarded": "forged"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve with forged hop header: status %d: %s", resp.StatusCode, body)
	}
	if peer := resp.Header.Get(headerPeer); peer != owner {
		t.Fatalf("forged hop header bypassed routing: served by %s, owner is %s", peer, owner)
	}
}
