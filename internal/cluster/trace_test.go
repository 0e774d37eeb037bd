package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// remoteOwnedRequest finds a solve request whose key is owned by a node other
// than entry, returning the request and the owner's index in nodes.
func remoteOwnedRequest(t *testing.T, nodes []*testNode, entry *testNode) (*modelio.SolveRequest, int) {
	t.Helper()
	for i := 0; i < 400; i++ {
		req := solveRequest(0.3+float64(i)*0.01, 80)
		owner := entry.gw.Ring().Owner(keyOf(t, req))
		if owner == entry.addr {
			continue
		}
		for j, n := range nodes {
			if n.addr == owner {
				return req, j
			}
		}
	}
	t.Fatal("could not find a remote-owned key")
	return nil, -1
}

// TestClusterTraceStitch is the tentpole's acceptance path: a solve forwarded
// through a 3-node loopback cluster must yield, via GET /cluster/v1/trace/{id},
// one stitched tree with spans from at least two nodes — then, with the
// owner killed, a still-served partial trace that names the dead member.
func TestClusterTraceStitch(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	entry := nodes[0]
	req, ownerIdx := remoteOwnedRequest(t, nodes, entry)
	owner := nodes[ownerIdx]

	const traceID = "stitch-acceptance-1"
	resp, body := postJSON(t, "http://"+entry.addr+"/v1/solve", req,
		map[string]string{"X-Request-Id": traceID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	if peer := resp.Header.Get("X-Cluster-Peer"); peer != owner.addr {
		t.Fatalf("served by %s, want owner %s", peer, owner.addr)
	}

	stitched := getStitchedTrace(t, entry.addr, traceID, http.StatusOK)
	if len(stitched.Missing) != 0 {
		t.Fatalf("missing members on a healthy cluster: %v", stitched.Missing)
	}
	if len(stitched.Nodes) < 2 {
		t.Fatalf("fragments from %v, want at least entry and owner", stitched.Nodes)
	}
	roots := obs.Stitch(stitched.Fragments)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1 fully-linked tree:\n%s", len(roots), stitched.Tree)
	}
	if got := obs.Nodes(roots); len(got) < 2 {
		t.Fatalf("stitched tree spans nodes %v, want ≥ 2", got)
	}
	if obs.SpanCount(roots) < 3 {
		t.Fatalf("stitched tree has %d spans, want ≥ 3 (root, forward, peer root):\n%s",
			obs.SpanCount(roots), stitched.Tree)
	}
	for _, want := range []string{"cluster-solve @" + entry.addr, "forward @" + entry.addr,
		"peer=" + owner.addr, "@" + owner.addr} {
		if !strings.Contains(stitched.Tree, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, stitched.Tree)
		}
	}

	// The same lookup through the owner's gateway must collect the entry
	// node's fragment symmetrically.
	fromOwner := getStitchedTrace(t, owner.addr, traceID, http.StatusOK)
	if len(fromOwner.Nodes) < 2 {
		t.Fatalf("owner-side stitch saw nodes %v, want ≥ 2", fromOwner.Nodes)
	}

	// Kill the owner: its fragments are gone with its memory, but the trace
	// must still be served, partial, with the dead member reported missing.
	owner.kill(t)
	partial := getStitchedTrace(t, entry.addr, traceID, http.StatusOK)
	if len(partial.Missing) != 1 || partial.Missing[0] != owner.addr {
		t.Fatalf("missing = %v, want [%s]", partial.Missing, owner.addr)
	}
	if len(partial.Fragments) == 0 || partial.Tree == "" {
		t.Fatal("partial trace is empty")
	}
	for _, n := range partial.Nodes {
		if n == owner.addr {
			t.Fatal("dead owner listed as contributing node")
		}
	}

	// Unknown trace: 404 even when members answer.
	getStitchedTrace(t, entry.addr, "no-such-trace", http.StatusNotFound)
}

// getStitchedTrace fetches /cluster/v1/trace/{id} expecting wantStatus, and
// decodes the body when it is a 200.
func getStitchedTrace(t *testing.T, addr, id string, wantStatus int) *StitchedTrace {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/cluster/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET trace %s: status %d (want %d): %s", id, resp.StatusCode, wantStatus, body)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	var st StitchedTrace
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// TestForwardDurationMetric: a forwarded solve lands one observation in the
// outcome="ok" bucket of the forward-duration histogram, and every outcome
// label is exposed even before being seen. The trace-store series must be
// present too.
func TestForwardDurationMetric(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	entry := nodes[0]
	req, _ := remoteOwnedRequest(t, nodes, entry)
	resp, body := postJSON(t, "http://"+entry.addr+"/v1/solve", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	metrics := getBody(t, "http://"+entry.addr+"/metrics")
	if got := metricValue(t, metrics, `solverd_cluster_forward_duration_seconds_count{outcome="ok"}`); got < 1 {
		t.Errorf(`outcome="ok" count = %g, want ≥ 1`, got)
	}
	for _, outcome := range []string{"hedge_win", "retry", "fallback"} {
		series := fmt.Sprintf(`solverd_cluster_forward_duration_seconds_count{outcome=%q}`, outcome)
		if got := metricValue(t, metrics, series); got != 0 {
			t.Errorf("%s = %g, want 0 in this test", series, got)
		}
	}
	if got := metricValue(t, metrics, "solverd_trace_store_spans"); got < 1 {
		t.Errorf("solverd_trace_store_spans = %g, want ≥ 1", got)
	}
	if metricValue(t, metrics, "solverd_trace_store_evictions_total") != 0 {
		t.Error("evictions on an uncapped test recorder")
	}
}

// TestOutboundHeaderPropagation audits every outbound request the fabric
// makes — forwards (hedged or not), peer fills, health probes, and the
// trace, events and self fleet collections — against a header-recording fake
// peer: all must carry X-Cluster-Secret and the caller's trace ID as
// X-Request-Id, or a fresh valid ID when the caller is untraced; forwards
// and fills must carry X-Parent-Span naming their span.
func TestOutboundHeaderPropagation(t *testing.T) {
	const secret = "audit-secret"
	var mu sync.Mutex
	seen := map[string]http.Header{} // path → last request headers
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = r.Header.Clone()
		mu.Unlock()
		switch {
		case r.URL.Path == "/healthz":
			w.WriteHeader(http.StatusOK)
		case strings.HasPrefix(r.URL.Path, "/debug/traces/"):
			http.Error(w, `{"error":"no"}`, http.StatusNotFound)
		case r.URL.Path == "/cluster/v1/export":
			http.Error(w, `{"error":"no"}`, http.StatusNotFound)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{}`))
		}
	}))
	defer fake.Close()
	fakeAddr := strings.TrimPrefix(fake.URL, "http://")

	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := newTestServerForGateway(t, logger)
	gw, err := New(srv, Config{
		Self:   "127.0.0.1:1",
		Peers:  []string{"127.0.0.1:1", fakeAddr},
		Secret: secret,
		Logger: logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(ctx context.Context, h http.HandlerFunc, target string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
		req.Header.Set("X-Cluster-Secret", secret)
		rec := httptest.NewRecorder()
		h(rec, req)
		return rec
	}
	// A local fragment makes the stitch answer 200, so the fake's clean 404
	// must count as an answer, not as a missing member.
	srv.Recorder().ForceRecord(telemetry.New("audit-trace-1", nil), "audit", http.StatusOK, 0)

	for _, traceID := range []string{"audit-trace-1", ""} {
		mu.Lock()
		clear(seen)
		mu.Unlock()
		ctx := context.Background()
		var tr *telemetry.Trace
		if traceID != "" {
			tr = telemetry.New(traceID, nil)
			root := tr.StartRoot("audit")
			defer root.End()
			ctx = telemetry.WithTrace(ctx, tr)
		}

		// Forward (the hedge path is the same function with hedge=true).
		res := gw.forwardOne(ctx, fakeAddr, "/v1/solve", []byte(`{}`), false, nil)
		if res.err != nil || res.status != http.StatusOK {
			t.Fatalf("forwardOne: %+v", res)
		}
		// Peer fill.
		filler := &peerFiller{g: gw}
		fillSpan := tr.StartSpan("peer-fill")
		filler.fetch(ctx, fakeAddr, []byte(`{}`), fillSpan.ID())
		fillSpan.End()
		// Health probe.
		if !gw.members.probe(ctx, fakeAddr) {
			t.Fatal("probe failed against the fake peer")
		}
		// Fleet collections: trace, events and self.
		if rec := serve(ctx, gw.handleTrace, "/cluster/v1/trace/audit-trace-1"); rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"missing"`) {
			t.Errorf("trace: the fake peer's clean 404 was not counted as an answer: %d %s", rec.Code, rec.Body)
		}
		if rec := serve(ctx, gw.handleEvents, "/cluster/v1/events"); !strings.Contains(rec.Body.String(), `"nodes":["127.0.0.1:1","`+fakeAddr+`"]`) {
			t.Errorf("events: the fake peer's answer was not counted: %d %s", rec.Code, rec.Body)
		}
		if rec := serve(ctx, gw.handleSelf, "/cluster/v1/self"); strings.Contains(rec.Body.String(), `"missing"`) {
			t.Errorf("self: the fake peer's answer was not counted: %d %s", rec.Code, rec.Body)
		}

		mu.Lock()
		checks := []struct {
			path       string
			wantParent bool
		}{
			{"/v1/solve", true},
			{"/cluster/v1/export", true},
			{"/healthz", false},
			{"/debug/traces/audit-trace-1", false},
			{"/debug/events", false},
			{"/v1/self", false},
		}
		for _, c := range checks {
			h, ok := seen[c.path]
			if !ok {
				t.Errorf("%q: no outbound request hit %s", traceID, c.path)
				continue
			}
			id := h.Get("X-Request-Id")
			switch {
			case traceID != "" && id != traceID:
				t.Errorf("%s: X-Request-Id %q, want the caller's trace ID %q", c.path, id, traceID)
			case traceID == "" && (!telemetry.ValidID(id) || id == "audit-trace-1"):
				t.Errorf("%s: untraced X-Request-Id %q, want a fresh valid ID", c.path, id)
			}
			if got := h.Get("X-Cluster-Secret"); got != secret {
				t.Errorf("%s: X-Cluster-Secret = %q, want the configured secret", c.path, got)
			}
			if c.wantParent && traceID != "" {
				if p := h.Get("X-Parent-Span"); !telemetry.ValidID(p) {
					t.Errorf("%s: X-Parent-Span %q invalid or missing", c.path, p)
				}
			}
		}
		if got := seen["/v1/solve"].Get("X-Cluster-Forwarded"); got == "" {
			t.Error("forward did not mark the hop with X-Cluster-Forwarded")
		}
		mu.Unlock()
	}
}

// TestClusterTraceSecret: with a secret configured, the stitch endpoint is
// part of the gated fabric surface.
func TestClusterTraceSecret(t *testing.T) {
	const secret = "trace-secret"
	nodes := startCluster(t, 2, func(c *Config) { c.Secret = secret })
	entry := nodes[0]

	// Retain something to ask for.
	resp, _ := postJSON(t, "http://"+entry.addr+"/v1/solve",
		solveRequest(0.7, 40), map[string]string{"X-Request-Id": "sec-trace-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}

	r, err := http.Get("http://" + entry.addr + "/cluster/v1/trace/sec-trace-1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusForbidden {
		t.Fatalf("trace without secret: status %d, want 403", r.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, "http://"+entry.addr+"/cluster/v1/trace/sec-trace-1", nil)
	req.Header.Set(headerSecret, secret)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(r2.Body)
		t.Fatalf("trace with secret: status %d: %s", r2.StatusCode, b)
	}
}

// newTestServerForGateway builds a minimal local server for direct gateway
// method tests (no listener needed).
func newTestServerForGateway(t *testing.T, logger *slog.Logger) *server.Server {
	t.Helper()
	return server.New(server.Config{Logger: logger,
		Recorder: obs.New(obs.Config{Node: "audit-local", SampleRate: 1})})
}
