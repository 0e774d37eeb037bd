package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/promtest"
	"repro/internal/queueing"
)

func testModel() *queueing.Model {
	return &queueing.Model{
		Name:      "srv-test",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 2, ServiceTime: 0.01},
		},
	}
}

func testSamples() *modelio.SamplesFile {
	return &modelio.SamplesFile{Stations: []modelio.StationSamples{
		{Name: "app/cpu", At: []float64{1, 100, 200}, Demands: []float64{0.02, 0.018, 0.017}},
		{Name: "db/disk", At: []float64{1, 100, 200}, Demands: []float64{0.02, 0.019, 0.018}},
	}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := testModel()
	resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoExact, Model: m, MaxN: 50,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out modelio.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Error("first solve claims to be cached")
	}
	want, err := core.ExactMVA(m, 50)
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Trajectory
	if tr == nil || len(tr.X) != 50 {
		t.Fatalf("trajectory missing or truncated: %+v", tr)
	}
	if tr.X[49] != want.X[49] || tr.R[49] != want.R[49] {
		t.Errorf("served X=%g R=%g, library X=%g R=%g", tr.X[49], tr.R[49], want.X[49], want.R[49])
	}
	if len(tr.FinalUtil) != 2 || tr.StationNames[0] != "app/cpu" {
		t.Errorf("final station metrics wrong: %+v", tr)
	}
}

func TestSolveCacheHitAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := modelio.SolveRequest{Model: testModel(), MaxN: 40}
	resp1, body1 := postJSON(t, ts.URL+"/v1/solve", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: %d %s", resp1.StatusCode, body1)
	}
	var out1, out2 modelio.SolveResponse
	if err := json.Unmarshal(body1, &out1); err != nil {
		t.Fatal(err)
	}
	_, body2 := postJSON(t, ts.URL+"/v1/solve", req)
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if out1.Cached || !out2.Cached {
		t.Errorf("cached flags: first=%v second=%v, want false/true", out1.Cached, out2.Cached)
	}
	if out1.Trajectory.X[39] != out2.Trajectory.X[39] {
		t.Error("cached solve diverged from the original")
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"solverd_cache_hits_total 1",
		"solverd_cache_misses_total 1",
		"solverd_cache_hit_ratio 0.5",
		"solverd_cache_entries 1",
		`solverd_requests_total{handler="solve",code="200"} 2`,
		`solverd_request_duration_seconds_bucket{handler="solve",le="+Inf"} 2`,
		"solverd_in_flight_solves 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestSolveMVASD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoMVASD, Model: testModel(), Samples: testSamples(),
		MaxN: 200, Every: 50,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out modelio.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// Decimated rows: 1, 51, 101, 151 plus the forced final population 200.
	if n := out.Trajectory.N; len(n) != 5 || n[len(n)-1] != 200 {
		t.Errorf("decimated populations: %v", n)
	}
	if out.Trajectory.Algorithm != "mvasd" {
		t.Errorf("algorithm = %q", out.Trajectory.Algorithm)
	}
}

// referenceSolveReply is what /v1/solve answered before bodies had a fast
// decoder, short of running the engine: 413 over the body cap, the strict
// json.Decoder's error or Normalize's error as a 400, or 0 for a body that
// reaches the engine with the returned request.
func referenceSolveReply(body []byte) (int, string, *modelio.SolveRequest) {
	if len(body) > maxBodyBytes {
		return http.StatusRequestEntityTooLarge, "decoding request: http: request body too large", nil
	}
	var req modelio.SolveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return http.StatusBadRequest, "decoding request: " + err.Error(), nil
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return http.StatusBadRequest, "decoding request: trailing data after JSON body", nil
	}
	if err := req.Normalize(); err != nil {
		return http.StatusBadRequest, err.Error(), nil
	}
	return 0, "", &req
}

// solveParityBodies are request bodies on which every decoding path must
// answer as encoding/json does: accepted edge cases, every error text, and
// the body cap.
func solveParityBodies() map[string]string {
	station := `{"name":"q","kind":"cpu","servers":1,"visits":1,"serviceTime":0.1}`
	model := `{"name":"x","thinkTime":1,"stations":[` + station + `]}`
	return map[string]string{
		"syntax":                 `{`,
		"unknown field":          `{"model":{"name":"x","stations":[]},"maxN":5,"bogus":1}`,
		"unknown algorithm":      `{"algorithm":"simplex","model":` + model + `,"maxN":5}`,
		"missing samples":        `{"algorithm":"mvasd","model":` + model + `,"maxN":5}`,
		"non-increasing samples": `{"algorithm":"mvasd","model":` + model + `,"maxN":5,"samples":{"stations":[{"name":"q","at":[5,2],"demands":[0.1,0.1]}]}}`,
		"maxN over cap":          `{"model":` + model + `,"maxN":100000}`,
		"canonical":              `{"model":` + model + `,"maxN":5}`,
		"case-folded key":        `{"model":` + model + `,"MaxN":5}`,
		"duplicate model":        `{"model":{"name":"a","thinkTime":3},"model":{"stations":[` + station + `]},"maxN":5}`,
		"null model":             `{"model":null,"maxN":5}`,
		"trailing object":        `{"model":` + model + `,"maxN":5}{}`,
		"fractional maxN":        `{"model":` + model + `,"maxN":1.0}`,
		"float overflow":         `{"model":{"name":"x","thinkTime":1e400,"stations":[` + station + `]},"maxN":5}`,
		"escaped name":           `{"model":{"name":"x","thinkTime":1,"stations":[{"name":"q\u00e9\n","kind":"cpu","servers":1,"visits":1,"serviceTime":0.1}]},"maxN":5}`,
		"non-ASCII name":         `{"model":{"name":"x","thinkTime":1,"stations":[{"name":"qé","kind":"cpu","servers":1,"visits":1,"serviceTime":0.1}]},"maxN":5}`,
		"invalid UTF-8 name":     "{\"model\":{\"name\":\"x\",\"thinkTime\":1,\"stations\":[{\"name\":\"q\xff\",\"kind\":\"cpu\",\"servers\":1,\"visits\":1,\"serviceTime\":0.1}]},\"maxN\":5}",
		"empty body":             ``,
		"over the cap":           `{"model":` + model + `,"maxN":5,"interp":"` + strings.Repeat("a", maxBodyBytes) + `"}`,
		"over the cap, early":    `{x` + strings.Repeat(" ", maxBodyBytes),
	}
}

// checkSolveParity posts every parity body to s's /v1/solve at url and
// asserts the reply equals the encoding/json reference: the same error
// status and text, or — for a body the reference accepts — the same
// trajectory a canonically re-encoded body gets.
func checkSolveParity(t *testing.T, s *Server, url string) {
	t.Helper()
	post := func(body []byte) (int, []byte) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	for name, body := range solveParityBodies() {
		t.Run(name, func(t *testing.T) {
			wantStatus, wantErr, req := referenceSolveReply([]byte(body))
			if req != nil {
				if err := s.checkMaxN(req.MaxN, req.Decimate); err != nil {
					wantStatus, wantErr = http.StatusBadRequest, err.Error()
				}
			}
			status, reply := post([]byte(body))
			if wantStatus != 0 {
				var e struct{ Error string }
				if err := json.Unmarshal(reply, &e); err != nil {
					t.Fatalf("status %d, undecodable error reply %q", status, reply)
				}
				if status != wantStatus || e.Error != wantErr {
					t.Fatalf("got %d %q, reference %d %q", status, e.Error, wantStatus, wantErr)
				}
				return
			}
			canonical, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			refStatus, refReply := post(canonical)
			if status != http.StatusOK || refStatus != http.StatusOK {
				t.Fatalf("status %d (%s), canonical body %d (%s)", status, reply, refStatus, refReply)
			}
			var got, want modelio.SolveResponse
			if err := json.Unmarshal(reply, &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(refReply, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Trajectory, want.Trajectory) {
				t.Fatalf("trajectory %+v, canonical body's %+v", got.Trajectory, want.Trajectory)
			}
		})
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxN: 1000})
	checkSolveParity(t, s, ts.URL+"/v1/solve")

	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}

// TestSolveRejectsNonFiniteSolution: models whose solution is not finite —
// think time and demands summing to zero, or values overflowing float64 —
// get a 400 naming the cause, not a 500 from the JSON encoder.
func TestSolveRejectsNonFiniteSolution(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 1000})
	for name, body := range map[string]string{
		"zero demand and think time": `{"model":{"name":"z","stations":[{"name":"q","servers":1}]},"maxN":10}`,
		"overflowing demand":         `{"model":{"name":"o","thinkTime":1,"stations":[{"name":"q","servers":1,"visits":1e200,"serviceTime":1e200}]},"maxN":10}`,
		"zero sample demands":        `{"algorithm":"mvasd","model":{"name":"s","stations":[{"name":"q","servers":1,"visits":1,"serviceTime":1}]},"samples":{"stations":[{"name":"q","at":[1,2],"demands":[0,0]}]},"maxN":10}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			reply, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), "not finite") {
				t.Fatalf("status %d: %s", resp.StatusCode, reply)
			}
		})
	}
}

// TestZeroDemandModelRejectedEverywhere: a model whose think time and
// demands sum to zero fails validation, so /v1/sweep answers 400 with
// /v1/solve's error text instead of a 500 from encoding +Inf.
func TestZeroDemandModelRejectedEverywhere(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 1000})
	const model = `{"name":"z","thinkTime":0,"stations":[{"name":"a","kind":"cpu","servers":1,"visits":1,"serviceTime":0}]}`
	for path, body := range map[string]string{
		"/v1/solve": `{"algorithm":"exact","model":` + model + `,"maxN":2}`,
		"/v1/sweep": `{"algorithm":"exact","model":` + model + `,"populations":[1,2]}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding reply: %v", path, err)
		}
		if resp.StatusCode != http.StatusBadRequest || reply.Error != queueing.ErrNotFinite.Error() {
			t.Errorf("%s: status %d error %q, want 400 %q", path, resp.StatusCode, reply.Error, queueing.ErrNotFinite)
		}
	}

	// Sampled demands that sum to zero pass validation (the model's own
	// demands are not used); the sweep point fails instead of the reply.
	resp, body := postJSON(t, ts.URL+"/v1/sweep", json.RawMessage(`{"algorithm":"mvasd",`+
		`"model":{"name":"s","stations":[{"name":"q","servers":1,"visits":1,"serviceTime":1}]},`+
		`"samples":{"stations":[{"name":"q","at":[1,2],"demands":[0,0]}]},"populations":[1,2]}`))
	var out modelio.SweepResponse
	if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled sweep: status %d: %s (%v)", resp.StatusCode, body, err)
	}
	if len(out.Points) != 1 || out.Points[0].Error != queueing.ErrNotFinite.Error() || out.Points[0].Rows != nil {
		t.Errorf("sampled sweep point: %+v, want error %q", out.Points, queueing.ErrNotFinite)
	}
}

func TestSweepFanOut(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"model":       testModel(),
		"populations": []int{25, 50},
		"thinkTimes":  []float64{1, 2},
		"servers":     map[string][]int{"app/cpu": {2, 4, 8}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out modelio.SweepResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.GridSize != 6 || len(out.Points) != 6 {
		t.Fatalf("grid size %d / %d points, want 6", out.GridSize, len(out.Points))
	}
	for i, p := range out.Points {
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", i, p.Error)
		}
		if len(p.Rows) != 2 || p.Rows[0].N != 25 || p.Rows[1].N != 50 {
			t.Fatalf("point %d rows: %+v", i, p.Rows)
		}
		if p.Bottleneck == "" {
			t.Errorf("point %d has no bottleneck", i)
		}
	}
	// Cross-check one grid point against a direct library solve.
	pt := out.Points[0] // thinkTime=1, app/cpu=2
	m := testModel()
	m.Stations[0].Servers = 2
	want, _, err := core.ExactMVAMultiServer(m, 50, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Rows[1].X != want.X[49] {
		t.Errorf("grid point X=%g, library X=%g", pt.Rows[1].X, want.X[49])
	}
	// Every grid point was its own cache entry.
	if got := s.cache.len(); got != 6 {
		t.Errorf("cache holds %d entries after the sweep, want 6", got)
	}

	// A repeated sweep is served entirely from the cache.
	_, body2 := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"model":       testModel(),
		"populations": []int{25, 50},
		"thinkTimes":  []float64{1, 2},
		"servers":     map[string][]int{"app/cpu": {2, 4, 8}},
	})
	var out2 modelio.SweepResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	for i, p := range out2.Points {
		if !p.Cached {
			t.Errorf("repeat sweep point %d not served from cache", i)
		}
	}
}

func TestSweepRejectsOversizedGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepPoints: 4})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"model":       testModel(),
		"populations": []int{10},
		"thinkTimes":  []float64{1, 2, 3},
		"servers":     map[string][]int{"app/cpu": {1, 2}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestSolveDeadlineReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Hold the solve until its context expires: the solver's first per-step
	// cancellation check must then abort the run.
	s.testHookSolveStart = func(ctx context.Context) { <-ctx.Done() }
	resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Model: testModel(), MaxN: 50, TimeoutMS: 20,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error body: %s (%v)", body, err)
	}

	// The failed solve must not have been cached; with the hook removed the
	// same request now succeeds.
	s.testHookSolveStart = nil
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Model: testModel(), MaxN: 50, TimeoutMS: 20,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after timeout: %d %s", resp2.StatusCode, body2)
	}
	var out modelio.SolveResponse
	if err := json.Unmarshal(body2, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Error("timed-out solve left a cache entry")
	}
}

func TestSweepDeadlineReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.testHookSolveStart = func(ctx context.Context) { <-ctx.Done() }
	resp, body := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"model":       testModel(),
		"populations": []int{10},
		"thinkTimes":  []float64{1, 2},
		"timeoutMs":   20,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/plan", modelio.PlanRequest{
		Model: testModel(), Users: 10, Limit: 500,
		SLA: modelio.SLASpec{MaxCycleTime: 1.5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out modelio.PlanResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Compliant || len(out.Violations) != 0 {
		t.Errorf("10 users should meet a 1.5s cycle SLA: %+v", out)
	}
	if out.MaxUsers == nil {
		t.Fatal("limit was set but maxUsers missing")
	}
	// Cross-check against the planning library.
	req := modelio.PlanRequest{Model: testModel(), Users: 10, Limit: 500, SLA: modelio.SLASpec{MaxCycleTime: 1.5}}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	plan, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.MaxUsersUnderSLA(500, req.SLA.ToSLA())
	if err != nil {
		t.Fatal(err)
	}
	if *out.MaxUsers != want {
		t.Errorf("maxUsers = %d, library says %d", *out.MaxUsers, want)
	}

	// And a violating population: beyond maxUsers the SLA must fail.
	resp, body = postJSON(t, ts.URL+"/v1/plan", modelio.PlanRequest{
		Model: testModel(), Users: want + 50,
		SLA: modelio.SLASpec{MaxCycleTime: 1.5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Compliant || len(out.Violations) == 0 {
		t.Errorf("expected a cycle-time violation at %d users: %+v", want+50, out)
	} else if out.Violations[0].Clause != "cycle time" {
		t.Errorf("violation clause = %q", out.Violations[0].Clause)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestMetricsContentType(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := getBody(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
}

// TestConcurrentIdenticalSolves drives the in-flight deduplication through
// the full HTTP stack: concurrent identical requests must produce exactly one
// solver execution.
func TestConcurrentIdenticalSolves(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	s.testHookSolveStart = func(ctx context.Context) {
		close(started)
		<-release
	}
	req := modelio.SolveRequest{Model: testModel(), MaxN: 30}

	type reply struct {
		code   int
		cached bool
	}
	replies := make(chan reply, 4)
	for i := 0; i < 4; i++ {
		go func() {
			resp, body := postJSON(t, ts.URL+"/v1/solve", req)
			var out modelio.SolveResponse
			json.Unmarshal(body, &out)
			replies <- reply{resp.StatusCode, out.Cached}
		}()
	}
	<-started // the single leader is executing
	// Give followers a moment to join the flight, then let the leader go.
	time.Sleep(20 * time.Millisecond)
	close(release)

	leaders, hits := 0, 0
	for i := 0; i < 4; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("status %d", r.code)
		}
		if r.cached {
			hits++
		} else {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d solver executions for 4 identical concurrent requests", leaders)
	}
	_ = fmt.Sprintf("%d", hits)
}

// TestStepPopulationsCounter runs concurrent solves, one cancelled by its
// timeout mid-run, and checks that solverd_solve_step_populations_total
// adds up every population each run advanced — the cancelled run's partial
// steps included — although the counter is bumped once per run.
func TestStepPopulationsCounter(t *testing.T) {
	logs := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Workers: 4, Logger: logger})
	model := func(name string) *queueing.Model {
		m := testModel()
		m.Name = name
		return m
	}
	complete := map[string]modelio.SolveRequest{
		"steps-exact":       {Algorithm: modelio.AlgoExact, Model: model("steps-exact"), MaxN: 3000},
		"steps-multiserver": {Model: model("steps-multiserver"), MaxN: 2000, Decimate: 50},
		"steps-mvasd": {Algorithm: modelio.AlgoMVASD, Model: model("steps-mvasd"), Samples: testSamples(),
			MaxN: 500, Decimate: 7},
	}
	const cancelledID = "steps-cancelled"
	cancelled := modelio.SolveRequest{Model: model(cancelledID), MaxN: 1_000_000_000, Decimate: 100_000, TimeoutMS: 200}

	var wg sync.WaitGroup
	status := make(map[string]int)
	var mu sync.Mutex
	post := func(id string, req modelio.SolveRequest) {
		defer wg.Done()
		resp := postJSONWithHeader(t, ts.URL+"/v1/solve", id, req)
		mu.Lock()
		status[id] = resp.StatusCode
		mu.Unlock()
	}
	want := 0
	for id, req := range complete {
		want += req.MaxN
		wg.Add(1)
		go post(id, req)
	}
	wg.Add(1)
	go post(cancelledID, cancelled)
	wg.Wait()
	for id := range complete {
		if status[id] != http.StatusOK {
			t.Fatalf("%s: status %d", id, status[id])
		}
	}
	if status[cancelledID] != http.StatusGatewayTimeout {
		t.Fatalf("cancelled solve: status %d, want 504", status[cancelledID])
	}

	// Each run's own step count is on its solve span.
	spanSteps := make(map[string]int)
	for _, line := range strings.Split(logs.String(), "\n") {
		var rec struct {
			Msg   string `json:"msg"`
			Span  string `json:"span"`
			ID    string `json:"id"`
			Steps *int   `json:"steps"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Msg != "span" || rec.Span != "solve" || rec.Steps == nil {
			continue
		}
		spanSteps[rec.ID] += *rec.Steps
	}
	for id, req := range complete {
		if spanSteps[id] != req.MaxN {
			t.Errorf("%s: solve span reports %d steps, want %d", id, spanSteps[id], req.MaxN)
		}
	}
	partial := spanSteps[cancelledID]
	if partial <= 0 || partial >= cancelled.MaxN {
		t.Fatalf("cancelled run advanced %d populations, want a partial run in (0, %d)", partial, cancelled.MaxN)
	}
	want += partial

	_, metrics := getBody(t, ts.URL+"/metrics")
	families := promtest.ParseExposition(t, metrics)
	if got := promtest.SingleValue(t, families, "solverd_solve_step_populations_total"); got != float64(want) {
		t.Fatalf("step populations = %g, want %d (%d of them from the cancelled run)", got, want, partial)
	}

	// The cancelled run published its frontier; serving it from the cache
	// must return a complete final row.
	cancelled.MaxN, cancelled.TimeoutMS = partial, 0
	resp, body := postJSON(t, ts.URL+"/v1/solve", cancelled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontier of the cancelled run: status %d: %s", resp.StatusCode, body)
	}
	var out modelio.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	tr := out.Trajectory
	if !out.Cached || tr.N[len(tr.N)-1] != partial {
		t.Fatalf("frontier reply: cached=%v, last population %d, want a hit at %d", out.Cached, tr.N[len(tr.N)-1], partial)
	}
	little := tr.X[len(tr.X)-1] * tr.ThinkTime
	for k, q := range tr.FinalQueueLen {
		little += q
		if u := tr.FinalUtil[k]; !(u >= 0 && u <= 1) {
			t.Fatalf("frontier finalUtil[%d] = %v", k, u)
		}
	}
	if math.Abs(little-float64(partial)) > 1e-9*float64(partial) {
		t.Fatalf("frontier row: ΣQ + X·Z = %v, want %d", little, partial)
	}
}
