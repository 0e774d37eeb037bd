// Cluster: boot a 3-node solverd fabric in one process (each node a real
// HTTP server on a loopback port), route solves and a planned sweep through
// one node's gateway, and show the consistent-hash ring doing its job —
// every model lands on its owner, repeated requests hit the owner's cache,
// and a trajectory solved on one node warm-starts an extension on another.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/queueing"
	"repro/internal/selfmodel"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Listeners first: every node needs the full member list before serving.
	const n = 3
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		listeners[i] = ln
		peers[i] = ln.Addr().String()
	}
	gateways := make([]*cluster.Gateway, n)
	servers := make([]*server.Server, n)
	for i := range listeners {
		// A keep-all flight recorder per node, so the stitched trace at the
		// end never depends on the sampling hash of the demo's trace ID.
		// Every node also journals its lifecycle and captures a short CPU
		// profile on its first anomaly (the overload finale's shed burst).
		jn := journal.New(journal.Config{Node: peers[i]})
		srv := server.New(server.Config{
			Logger:   logger,
			Recorder: obs.New(obs.Config{Node: peers[i], SampleRate: 1}),
			Journal:  jn,
			Profiles: journal.NewProfileStore(journal.ProfileConfig{
				Node: peers[i], CPUDuration: 300 * time.Millisecond, Journal: jn,
			}),
			// Small fixed worker pools and enforce-mode admission so the
			// overload finale can push the fleet past its predicted knee.
			Workers:   4,
			Self:      selfmodel.Config{MaxN: 64},
			Admission: admission.Config{Mode: admission.ModeEnforce},
		})
		servers[i] = srv
		gw, err := cluster.New(srv, cluster.Config{
			Self:          peers[i],
			Peers:         peers,
			Replication:   2,
			ProbeInterval: 100 * time.Millisecond,
			RedirectTTL:   100 * time.Millisecond,
			Logger:        logger,
		})
		if err != nil {
			return err
		}
		gw.Start(ctx)
		defer gw.Stop()
		gateways[i] = gw
		go srv.Serve(ctx, listeners[i])
	}
	entry := peers[0]
	fmt.Printf("3-node fabric up: %v (entry point %s)\n\n", peers, entry)

	// Distinct models route to distinct owners.
	fmt.Println("== key affinity: each model lands on its ring owner ==")
	for i := 0; i < 4; i++ {
		req := &modelio.SolveRequest{
			Algorithm: "multiserver",
			Model:     demoModel(0.5 + 0.25*float64(i)),
			MaxN:      200,
		}
		owner, served, cached, err := solveVia(entry, gateways[0], req)
		if err != nil {
			return err
		}
		fmt.Printf("model Z=%.2fs  owner=%s  served-by=%s  cached=%v\n",
			req.Model.ThinkTime, owner, served, cached)
	}

	// The same model again: a cache hit on its owner, wherever asked.
	fmt.Println("\n== repeat request: answered from the owner's cache ==")
	again := &modelio.SolveRequest{Algorithm: "multiserver", Model: demoModel(0.75), MaxN: 200}
	_, served, cached, err := solveVia(entry, gateways[0], again)
	if err != nil {
		return err
	}
	fmt.Printf("model Z=0.75s  served-by=%s  cached=%v\n", served, cached)

	// A planned sweep fans groups out to their owners across the fabric.
	fmt.Println("\n== planned sweep through the gateway ==")
	sweep := &modelio.SweepRequest{
		SolveRequest: modelio.SolveRequest{Algorithm: "multiserver", Model: demoModel(1.0)},
		Populations:  []int{50, 150},
		ThinkTimes:   []float64{0.5, 1.0},
		Servers:      map[string][]int{"web/cpu": {4, 8}},
	}
	var sweepResp modelio.SweepResponse
	if _, err := postJSON(entry, "/v1/sweep", sweep, &sweepResp); err != nil {
		return err
	}
	fmt.Printf("grid of %d points:\n", sweepResp.GridSize)
	for _, p := range sweepResp.Points {
		for _, row := range p.Rows {
			fmt.Printf("  Z=%.2fs cpu=%d N=%-4d  X=%7.2f req/s  R=%6.4f s  bottleneck=%s (%.0f%%)\n",
				p.Point.ThinkTime, p.Point.Servers["web/cpu"], row.N, row.X, row.R,
				p.Bottleneck, 100*row.BottleneckUtil)
		}
	}

	// Peer cache fill: extend on a node that never solved the model.
	fmt.Println("\n== peer cache fill: node B extends node A's trajectory ==")
	extreq := &modelio.SolveRequest{Algorithm: "multiserver", Model: demoModel(0.75), MaxN: 800}
	extOwner, _, _, err := solveVia(entry, gateways[0], &modelio.SolveRequest{
		Algorithm: "multiserver", Model: demoModel(0.75), MaxN: 200})
	if err != nil {
		return err
	}
	other := peers[0]
	for _, p := range peers {
		if p != extOwner {
			other = p
			break
		}
	}
	hdr := map[string]string{"X-Cluster-Forwarded": "demo"} // force local serving on B
	var extResp modelio.SolveResponse
	if _, err := postJSONHeaders(other, "/v1/solve", extreq, hdr, &extResp); err != nil {
		return err
	}
	last := len(extResp.Trajectory.N) - 1
	fmt.Printf("extended to N=%d on %s: X=%.2f req/s (cold solve avoided: restored N=200 from its owner)\n",
		extResp.Trajectory.N[last], other, extResp.Trajectory.X[last])

	// The cluster metrics tell the story.
	fmt.Println("\n== cluster counters ==")
	for i, p := range peers {
		body, err := get(p, "/metrics")
		if err != nil {
			return err
		}
		fmt.Printf("node %d (%s): %s %s %s\n", i, p,
			pick(body, "solverd_cluster_forwards_total"),
			pick(body, "solverd_cluster_peer_fill_hits_total"),
			pick(body, "solverd_solve_extends_total"))
	}

	// The flight recorder saw all of it: forward a fresh solve under a known
	// trace ID and render the stitched cross-node tree.
	fmt.Println("\n== distributed trace: one forwarded solve, stitched across nodes ==")
	if err := printStitchedTrace(entry, gateways[0]); err != nil {
		return err
	}

	// Each node has also been sampling itself the whole time. Close one
	// sampling window per node and render the fleet's self-model view.
	fmt.Println("\n== fleet headroom: GET /cluster/v1/self ==")
	if err := printFleetSelf(entry, servers); err != nil {
		return err
	}

	// Finale: push offered load past what the fleet's self-models say is
	// safe, and watch admission degrade gracefully — redirect while a peer
	// has headroom, shed with 429 + Retry-After once nobody does, recover
	// after drain. The client never sees a 5xx.
	fmt.Println("\n== graceful degradation: offered load past the fleet's knee ==")
	if err := degrade(peers, gateways[0], servers); err != nil {
		return err
	}

	// The whole incident is on the record: the fleet event journal holds
	// every mode change, shed burst and redirect the ladder just produced,
	// and the first shed burst triggered an anomaly profile capture.
	fmt.Println("\n== fleet event journal: the incident, reconstructed ==")
	return printFleetEvents(entry)
}

// printFleetEvents renders the merged fleet timeline and fetches the profile
// the first anomaly captured, closing the symptom→evidence loop.
func printFleetEvents(entry string) error {
	body, err := get(entry, "/cluster/v1/events")
	if err != nil {
		return err
	}
	var fe cluster.FleetEvents
	if err := json.Unmarshal([]byte(body), &fe); err != nil {
		return fmt.Errorf("decoding fleet events: %w (body %q)", err, body)
	}
	fmt.Printf("fleet timeline via %s: %d event(s) from %d node(s)\n\n", fe.Self, len(fe.Events), len(fe.Nodes))
	events := fe.Events
	if len(events) > 12 {
		fmt.Printf("  ... %d earlier event(s) elided ...\n", len(events)-12)
		events = events[len(events)-12:]
	}
	var profNode, profID string
	for _, e := range fe.Events {
		if e.ProfileID != "" && profID == "" {
			profNode, profID = e.Node, e.ProfileID
		}
	}
	for _, e := range events {
		ts := time.UnixMilli(e.TimeUnixMS).UTC().Format("15:04:05.000")
		fmt.Printf("  %s %-22s %-16s %s", ts, e.Node, e.Type, e.Message)
		if e.ProfileID != "" {
			fmt.Printf("  profile=%s", e.ProfileID)
		}
		fmt.Println()
	}
	if profID == "" {
		return fmt.Errorf("no anomaly capture in the timeline (expected one from the shed burst)")
	}

	// The capture runs async for a few hundred ms; poll the index, then pull
	// the raw pprof proto exactly as `solverctl profile` would.
	deadline := time.Now().Add(5 * time.Second)
	for {
		idx, err := get(profNode, "/debug/profiles")
		if err != nil {
			return err
		}
		var pr server.ProfilesResponse
		if err := json.Unmarshal([]byte(idx), &pr); err != nil {
			return fmt.Errorf("decoding profile index: %w", err)
		}
		done := false
		for _, p := range pr.Profiles {
			if p.ID == profID && p.State == "done" {
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("profile %s did not finish capturing", profID)
		}
		time.Sleep(25 * time.Millisecond)
	}
	raw, err := get(profNode, "/debug/profiles/"+profID)
	if err != nil {
		return err
	}
	fmt.Printf("\nanomaly profile %s captured on %s during the shed burst: %d bytes of pprof proto\n",
		profID, profNode, len(raw))
	fmt.Println("(`solverctl profile " + profID + "` writes it to disk for `go tool pprof`)")
	return nil
}

// degrade runs the overload ladder against enforce-mode nodes. Standing
// offered load is modeled by phantom in-flight requests on each node's
// self-monitor (the same lever the cluster overload test uses), and a small
// burst of real solves probes what a client sees at each level.
func degrade(peers []string, gw *cluster.Gateway, servers []*server.Server) error {
	safe, err := warmSelfModels(servers)
	if err != nil {
		return err
	}
	fmt.Printf("self-models warmed on synthetic ground-truth windows:\n"+
		"each node predicts max-safe concurrency N* = %d (fleet capacity %d)\n",
		safe, safe*len(servers))

	// The ramp's probe model and the node that owns it — bursts go straight
	// at the owner so the ladder is deterministic.
	req := &modelio.SolveRequest{Algorithm: "multiserver", Model: demoModel(3.3), MaxN: 120}
	norm := *req
	norm.Model = &*req.Model
	if err := norm.Normalize(); err != nil {
		return err
	}
	key, err := norm.CacheKey()
	if err != nil {
		return err
	}
	ownerAddr := gw.Ring().Owner(key)
	var ownerSrv *server.Server
	for i, p := range peers {
		if p == ownerAddr {
			ownerSrv = servers[i]
		}
	}

	phantoms := func(s *server.Server, n int) {
		for i := 0; i < n; i++ {
			s.SelfMonitor().RequestBegin()
		}
	}
	burst := func(level string) error {
		var admitted, redirected, shed int
		retryAfter := ""
		for i := 0; i < 3; i++ {
			resp, _, err := post(ownerAddr, "/v1/solve", req)
			if err != nil {
				return err
			}
			switch {
			case resp.StatusCode == http.StatusOK && resp.Header.Get("X-Cluster-Peer") != ownerAddr:
				redirected++
			case resp.StatusCode == http.StatusOK:
				admitted++
			case resp.StatusCode == http.StatusTooManyRequests:
				shed++
				retryAfter = resp.Header.Get("Retry-After")
			default:
				return fmt.Errorf("client saw status %d at level %q", resp.StatusCode, level)
			}
		}
		fmt.Printf("\n%s\n  burst of 3 solves at the owner: %d admitted, %d redirected to a peer, %d shed",
			level, admitted, redirected, shed)
		if retryAfter != "" {
			fmt.Printf(" (Retry-After %ss)", retryAfter)
		}
		fmt.Println()
		return printAdmission(peers)
	}

	if err := burst(fmt.Sprintf("-- offered load well under the knee (0 of %d slots standing) --", safe)); err != nil {
		return err
	}

	phantoms(ownerSrv, safe) // the owner is now past its predicted knee
	if err := burst(fmt.Sprintf("-- owner past its knee (%d standing), peers idle --", safe)); err != nil {
		return err
	}

	for i, p := range peers { // now the whole fleet is
		if p != ownerAddr {
			phantoms(servers[i], safe)
		}
	}
	time.Sleep(150 * time.Millisecond) // let the cached headroom view expire
	if err := burst(fmt.Sprintf("-- fleet exhausted (%d standing on every node) --", safe)); err != nil {
		return err
	}

	for _, s := range servers { // drain: every phantom completes
		for i := 0; i < safe; i++ {
			s.SelfMonitor().RequestEnd(10 * time.Millisecond)
		}
	}
	if err := burst("-- drained: the fleet admits again --"); err != nil {
		return err
	}
	fmt.Println("\nno request saw a 5xx at any load level: past the knee the fleet answers" +
		"\nwith a peer's capacity first and an honest 429 + Retry-After last")
	return nil
}

// warmSelfModels feeds every node's self-model the synthetic ground-truth
// windows (an MVASD solve of the node's own two-station model) until it is
// ready, and returns the predicted max-safe concurrency.
func warmSelfModels(servers []*server.Server) (int, error) {
	const (
		truthWorkers = 4
		truthDW      = 0.010
		truthDD      = 0.030
		truthMaxN    = 64
	)
	dm := core.FuncDemands{K: 2, F: func(k, _ int) float64 {
		if k == 0 {
			return truthDW
		}
		return truthDD
	}}
	sol, err := core.NewMVASDSolver(selfmodel.SelfModel(truthWorkers), dm, core.MVASDOptions{})
	if err != nil {
		return 0, err
	}
	defer sol.Release()
	if err := sol.Run(truthMaxN); err != nil {
		return 0, err
	}
	res := sol.Result()

	safe := 0
	for _, s := range servers {
		m := s.SelfMonitor()
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
				BusySeconds:     x * truthDW,
				StationSeconds:  x * res.ResidenceRow(n - 1)[0],
				InFlightSeconds: float64(n),
				Latencies:       lat,
			}
			for i := 0; i < m.Config().Estimate.MinSamples; i++ {
				rep = m.ObserveWindow(w)
			}
		}
		if rep == nil || !rep.Ready || rep.MaxSafeN <= 0 {
			return 0, fmt.Errorf("self-model did not become ready: %+v", rep)
		}
		safe = rep.MaxSafeN
	}
	return safe, nil
}

// printAdmission renders each node's lifetime admission counters from its
// GET /v1/self report.
func printAdmission(peers []string) error {
	for _, p := range peers {
		body, err := get(p, "/v1/self")
		if err != nil {
			return err
		}
		var sr modelio.SelfResponse
		if err := json.Unmarshal([]byte(body), &sr); err != nil {
			return fmt.Errorf("decoding self report from %s: %w", p, err)
		}
		if sr.Admission == nil {
			return fmt.Errorf("no admission counters in self report from %s", p)
		}
		a := sr.Admission
		fmt.Printf("  node %s: in-flight %2d  admitted=%d redirected=%d shed=%d coalesced=%d\n",
			p, sr.InFlight, a.Admitted, a.Redirected, a.Shed, a.Coalesced)
	}
	return nil
}

// printFleetSelf closes a self-model sampling window on every node and
// renders the gateway's fleet view. The demo's load is sequential (one
// request in flight at a time), so the nodes report their sampled windows
// while still warming up — a model becomes ready once windows span multiple
// concurrencies, which takes sustained concurrent load.
func printFleetSelf(entry string, servers []*server.Server) error {
	now := time.Now()
	for _, s := range servers {
		s.SelfMonitor().Advance(now)
	}
	body, err := get(entry, "/cluster/v1/self")
	if err != nil {
		return err
	}
	var fleet modelio.ClusterSelfResponse
	if err := json.Unmarshal([]byte(body), &fleet); err != nil {
		return fmt.Errorf("decoding fleet self view: %w (body %q)", err, body)
	}
	for _, node := range fleet.Nodes {
		if node.Self == nil {
			fmt.Printf("node %s: %s\n", node.Member, node.Error)
			continue
		}
		s := node.Self
		state := "warming up"
		if s.Ready {
			state = fmt.Sprintf("knee N=%d, max-safe %d, headroom %d", s.KneeN, s.MaxSafeN, s.Headroom)
		}
		fmt.Printf("node %s: %d worker(s), %d window(s), %d sampled request(s), observed X=%.1f req/s — %s\n",
			node.Member, s.Workers, s.Windows, s.Completions, s.ObservedThroughput, state)
	}
	fmt.Printf("fleet: %d ready node(s), %d in flight\n", fleet.ReadyNodes, fleet.FleetInFlight)
	fmt.Println("(each node fits a queueing model of itself from these samples; under sustained" +
		"\n concurrent load it predicts its own saturation knee and remaining headroom —" +
		"\n `solverctl headroom` renders the live table)")
	return nil
}

// printStitchedTrace finds a model owned by a remote node, solves it through
// the entry gateway under an explicit trace ID, and renders the tree that
// GET /cluster/v1/trace/{id} stitches from every member's fragments.
func printStitchedTrace(entry string, gw *cluster.Gateway) error {
	const traceID = "cluster-demo-trace"
	var req *modelio.SolveRequest
	for i := 0; i < 200; i++ {
		cand := &modelio.SolveRequest{
			Algorithm: "multiserver",
			Model:     demoModel(2.0 + 0.05*float64(i)),
			MaxN:      150,
		}
		norm := *cand
		norm.Model = &*cand.Model
		if err := norm.Normalize(); err != nil {
			return err
		}
		key, err := norm.CacheKey()
		if err != nil {
			return err
		}
		if gw.Ring().Owner(key) != entry {
			req = cand
			break
		}
	}
	if req == nil {
		return fmt.Errorf("no remote-owned model found in 200 tries")
	}
	var solveResp modelio.SolveResponse
	if _, err := postJSONHeaders(entry, "/v1/solve", req,
		map[string]string{"X-Request-Id": traceID}, &solveResp); err != nil {
		return err
	}
	body, err := get(entry, "/cluster/v1/trace/"+traceID)
	if err != nil {
		return err
	}
	var st cluster.StitchedTrace
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return fmt.Errorf("decoding stitched trace: %w (body %q)", err, body)
	}
	if st.Tree == "" {
		return fmt.Errorf("no stitched trace for %s: %s", traceID, body)
	}
	fmt.Printf("trace %s: %d fragment(s) from %v\n\n", st.ID, len(st.Fragments), st.Nodes)
	fmt.Print(st.Tree)
	return nil
}

func demoModel(thinkTime float64) *queueing.Model {
	return &queueing.Model{
		Name:      "cluster-demo",
		ThinkTime: thinkTime,
		Stations: []queueing.Station{
			{Name: "web/cpu", Kind: queueing.CPU, Servers: 8, Visits: 1, ServiceTime: 0.012},
			{Name: "db/cpu", Kind: queueing.CPU, Servers: 8, Visits: 1, ServiceTime: 0.020},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.009},
		},
	}
}

// solveVia posts a solve through addr's gateway and reports the key's ring
// owner, who actually served, and whether the answer came from cache.
func solveVia(addr string, gw *cluster.Gateway, req *modelio.SolveRequest) (owner, served string, cached bool, err error) {
	norm := *req
	norm.Model = &*req.Model
	if err := norm.Normalize(); err != nil {
		return "", "", false, err
	}
	key, err := norm.CacheKey()
	if err != nil {
		return "", "", false, err
	}
	owner = gw.Ring().Owner(key)
	var resp modelio.SolveResponse
	httpResp, err := postJSON(addr, "/v1/solve", req, &resp)
	if err != nil {
		return "", "", false, err
	}
	return owner, httpResp.Header.Get("X-Cluster-Peer"), resp.Cached, nil
}

func postJSON(addr, path string, body, into any) (*http.Response, error) {
	return postJSONHeaders(addr, path, body, nil, into)
}

// post sends a JSON body and returns the response whatever its status —
// the overload finale needs to read 429s, not error on them.
func post(addr, path string, body any) (*http.Response, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

func postJSONHeaders(addr, path string, body any, headers map[string]string, into any) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, out)
	}
	return resp, json.Unmarshal(out, into)
}

func get(addr, path string) (string, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return string(out), err
}

// pick extracts one metric line from a Prometheus exposition.
func pick(body, series string) string {
	for _, line := range bytes.Split([]byte(body), []byte("\n")) {
		if bytes.HasPrefix(line, []byte(series+" ")) {
			return string(line)
		}
	}
	return series + " ?"
}
