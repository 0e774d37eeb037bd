package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/modelio"
	"repro/internal/server"
)

// wireMaxN and wireMaxPoints are the population and sweep-grid caps of
// every node in the wire tests; they keep fuzzed solves and sweeps short.
const (
	wireMaxN      = 1000
	wireMaxPoints = 64
)

// wirePaths is a standalone solverd handler beside an in-process 2-node
// fabric whose servers share its config, so one body can be answered on
// both paths and the replies compared.
type wirePaths struct {
	standalone http.Handler
	entries    []string
}

func newWirePaths(t testing.TB) *wirePaths {
	t.Helper()
	tuneSrv := func(_ string, c *server.Config) { c.MaxN, c.MaxSweepPoints = wireMaxN, wireMaxPoints }
	cfg := server.Config{CacheSize: 64, Workers: 4, RequestTimeout: 20 * time.Second,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	tuneSrv("", &cfg)
	nodes := startClusterTuned(t, 2, nil, tuneSrv)
	return &wirePaths{
		standalone: server.New(cfg).Handler(),
		entries:    []string{"http://" + nodes[0].addr, "http://" + nodes[1].addr},
	}
}

// check posts body to path (/v1/solve, /v1/sweep or /v1/plan) on the
// standalone handler and on entry (an index into the fabric's nodes) and
// asserts: no 5xx; the same status on both paths; the same error text on a
// non-200; and on a 200 a reply that decodes with finite floats and carries
// the same answer (see wireAnswer).
func (p *wirePaths) check(t *testing.T, path string, body []byte, entry int) {
	t.Helper()
	rec := httptest.NewRecorder()
	p.standalone.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	resp, err := http.Post(p.entries[entry]+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code >= 500 || resp.StatusCode >= 500 {
		t.Fatalf("body %q: standalone %d (%s), gateway %d (%s)", body, rec.Code, rec.Body, resp.StatusCode, reply)
	}
	if rec.Code != resp.StatusCode {
		t.Fatalf("body %q: standalone %d (%s), gateway %d (%s)", body, rec.Code, rec.Body, resp.StatusCode, reply)
	}
	if rec.Code != http.StatusOK {
		var a, b struct{ Error string }
		if json.Unmarshal(rec.Body.Bytes(), &a) != nil || json.Unmarshal(reply, &b) != nil || a.Error != b.Error {
			t.Fatalf("body %q: standalone error %s, gateway error %s", body, rec.Body, reply)
		}
		return
	}
	// A JSON reply cannot carry NaN or Inf; a float out of range fails to
	// decode into float64, so decoding both replies checks every value.
	a, err := wireAnswer(path, rec.Body.Bytes())
	if err != nil {
		t.Fatalf("body %q: standalone 200 does not decode: %v", body, err)
	}
	b, err := wireAnswer(path, reply)
	if err != nil {
		t.Fatalf("body %q: gateway 200 does not decode: %v", body, err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("body %q: standalone answer %+v, gateway %+v", body, a, b)
	}
}

// wireAnswer decodes a 200 reply from path into what both paths must agree
// on: a solve's trajectory, or a sweep or plan reply without its elapsed
// time and per-point cache outcomes, which depend on each node's history.
func wireAnswer(path string, reply []byte) (any, error) {
	switch path {
	case "/v1/sweep":
		var r modelio.SweepResponse
		err := json.Unmarshal(reply, &r)
		for i := range r.Points {
			r.Points[i].Cached = false
		}
		r.ElapsedMS = 0
		return r, err
	case "/v1/plan":
		var r modelio.PlanResponse
		err := json.Unmarshal(reply, &r)
		r.ElapsedMS = 0
		return r, err
	}
	var r modelio.SolveResponse
	err := json.Unmarshal(reply, &r)
	return r.Trajectory, err
}

// gatewayParityBodies mirror the server's decoding parity table
// (TestSolveRejectsBadRequests in internal/server).
func gatewayParityBodies() map[string]string {
	station := `{"name":"q","kind":"cpu","servers":1,"visits":1,"serviceTime":0.1}`
	model := `{"name":"x","thinkTime":1,"stations":[` + station + `]}`
	return map[string]string{
		"syntax":              `{`,
		"unknown field":       `{"model":{"name":"x","stations":[]},"maxN":5,"bogus":1}`,
		"unknown algorithm":   `{"algorithm":"simplex","model":` + model + `,"maxN":5}`,
		"maxN over cap":       `{"model":` + model + `,"maxN":100000}`,
		"canonical":           `{"model":` + model + `,"maxN":5}`,
		"case-folded key":     `{"model":` + model + `,"MaxN":5}`,
		"duplicate model":     `{"model":{"name":"a","thinkTime":3},"model":{"stations":[` + station + `]},"maxN":5}`,
		"null model":          `{"model":null,"maxN":5}`,
		"trailing object":     `{"model":` + model + `,"maxN":5}{}`,
		"fractional maxN":     `{"model":` + model + `,"maxN":1.0}`,
		"float overflow":      `{"model":{"name":"x","thinkTime":1e400,"stations":[` + station + `]},"maxN":5}`,
		"escaped name":        `{"model":{"name":"x","thinkTime":1,"stations":[{"name":"q\u00e9\n","kind":"cpu","servers":1,"visits":1,"serviceTime":0.1}]},"maxN":5}`,
		"non-ASCII name":      `{"model":{"name":"x","thinkTime":1,"stations":[{"name":"qé","kind":"cpu","servers":1,"visits":1,"serviceTime":0.1}]},"maxN":5}`,
		"invalid UTF-8 name":  "{\"model\":{\"name\":\"x\",\"thinkTime\":1,\"stations\":[{\"name\":\"q\xff\",\"kind\":\"cpu\",\"servers\":1,\"visits\":1,\"serviceTime\":0.1}]},\"maxN\":5}",
		"empty body":          ``,
		"over the cap":        `{"model":` + model + `,"maxN":5,"interp":"` + strings.Repeat("a", 8<<20) + `"}`,
		"over the cap, early": `{x` + strings.Repeat(" ", 8<<20),
	}
}

// TestGatewaySolveRejectsBadRequests is the gateway twin of the server's
// decoding parity table: through either node of a 2-node fabric — one
// solving locally, the other forwarding to the key's owner — every body
// gets the standalone node's status and error text, which the server's
// table pins to encoding/json's.
func TestGatewaySolveRejectsBadRequests(t *testing.T) {
	p := newWirePaths(t)
	for name, body := range gatewayParityBodies() {
		t.Run(name, func(t *testing.T) {
			for entry := range p.entries {
				p.check(t, "/v1/solve", []byte(body), entry)
			}
		})
	}
}

// FuzzSolveRequest posts fuzzed /v1/solve bodies to a standalone handler
// and through a 2-node fabric: no panic, no 5xx, no NaN or Inf in a 200,
// and the same answer on both paths.
func FuzzSolveRequest(f *testing.F) {
	for _, body := range gatewayParityBodies() {
		if len(body) < 1<<10 {
			f.Add([]byte(body))
		}
	}
	for _, algo := range modelio.Algorithms() {
		req := solveRequest(0.5, 50)
		req.Algorithm = algo
		req.Samples = &modelio.SamplesFile{Stations: []modelio.StationSamples{
			{Name: "web/cpu", At: []float64{1, 20, 50}, Demands: []float64{0.02, 0.018, 0.017}},
			{Name: "db/disk", At: []float64{1, 20, 50}, Demands: []float64{0.008, 0.008, 0.009}},
		}}
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"algorithm":"mvasd","demandAxis":"throughput","decimate":7,"every":3,"model":{"name":"d","thinkTime":0,"stations":[{"name":"a","kind":"cpu","servers":3,"visits":2,"serviceTime":1e-9},{"name":"b","kind":"delay","servers":1,"visits":0,"serviceTime":0}]},"samples":{"stations":[{"name":"a","at":[0.5,1],"demands":[1e-9,2e-9]},{"name":"b","at":[0.5,1],"demands":[0,0]}]},"maxN":999}`))
	p := newWirePaths(f)
	entry := 0
	f.Fuzz(func(t *testing.T, body []byte) {
		entry ^= 1
		p.check(t, "/v1/solve", body, entry)
	})
}

// wireModel is the two-station model of the sweep and plan seeds.
const wireModel = `{"name":"w","thinkTime":0.5,"stations":[{"name":"web/cpu","kind":"cpu","servers":4,"visits":1,"serviceTime":0.02},{"name":"db/disk","kind":"disk","servers":1,"visits":2,"serviceTime":0.004}]}`

// decimatedDupSweep is a decimated sweep whose server axis repeats the
// station's own count: its web/cpu=4 group has two members, and n=20 falls
// between the stored rows, so that group's rows come from Result.Recover.
const decimatedDupSweep = `{"algorithm":"multiserver","decimate":7,"model":` + wireModel + `,"populations":[20,45],"servers":{"web/cpu":[4,2,4]}}`

// sweepPlanSeeds are valid and boundary /v1/sweep and /v1/plan bodies.
func sweepPlanSeeds() (sweeps, plans []string) {
	model := wireModel
	samples := `{"stations":[{"name":"web/cpu","at":[1,20,50],"demands":[0.02,0.018,0.017]},{"name":"db/disk","at":[1,20,50],"demands":[0.008,0.008,0.009]}]}`
	zeroModel := `{"name":"z","thinkTime":0,"stations":[{"name":"a","kind":"cpu","servers":1,"visits":1,"serviceTime":0.01}]}`
	zeroSamples := `{"stations":[{"name":"a","at":[1,2],"demands":[0,0]}]}`
	sweeps = []string{
		`{"model":` + model + `,"populations":[1,10,50]}`,
		`{"algorithm":"exact","model":` + model + `,"populations":[5,1,30],"thinkTimes":[0,0.5,2],"servers":{"web/cpu":[1,2]}}`,
		`{"algorithm":"mvasd","model":` + model + `,"samples":` + samples + `,"populations":[20,60],"servers":{"db/disk":[1,3]}}`,
		`{"algorithm":"schweitzer","decimate":7,"model":` + model + `,"populations":[3,50,1000]}`,
		`{"algorithm":"mvasd-1s","model":` + zeroModel + `,"samples":` + zeroSamples + `,"populations":[1,4],"thinkTimes":[0,1]}`,
		`{"model":` + model + `,"populations":[]}`,
		`{"model":` + model + `,"populations":[0]}`,
		`{"model":` + model + `,"populations":[1001]}`,
		`{"model":` + model + `,"populations":[5],"thinkTimes":[-1]}`,
		`{"model":` + model + `,"populations":[5],"servers":{"nope":[1]}}`,
		`{"model":` + model + `,"populations":[5],"servers":{"web/cpu":[]}}`,
		`{"model":` + model + `,"populations":[5],"servers":{"web/cpu":[0]}}`,
		`{"model":` + model + `,"populations":[5],"thinkTimes":[0,1,2,3,4,5,6,7,8],"servers":{"web/cpu":[1,2,3,4,5,6,7,8]}}`,
		`{"model":null,"populations":[5]}`,
		`{"model":` + model + `,"populations":[5],"maxN":3}`,
		decimatedDupSweep,
	}
	plans = []string{
		`{"model":` + model + `,"users":10,"sla":{"maxResponseTime":0.5}}`,
		`{"model":` + model + `,"users":200,"limit":400,"sla":{"maxCycleTime":1,"minThroughput":5,"maxUtilization":0.9,"stationCaps":{"db/disk":0.7}}}`,
		`{"model":` + model + `,"samples":` + samples + `,"interp":"linear","users":50,"limit":100,"sla":{"maxResponseTime":0.2}}`,
		`{"model":` + zeroModel + `,"samples":` + zeroSamples + `,"users":3,"limit":5,"sla":{"maxResponseTime":1,"minThroughput":1}}`,
		`{"model":` + model + `,"users":0,"sla":{}}`,
		`{"model":` + model + `,"users":1001,"sla":{}}`,
		`{"model":` + model + `,"users":5,"limit":-1,"sla":{}}`,
		`{"model":` + model + `,"users":5,"sla":{"stationCaps":{"nope":0.5}}}`,
		`{"model":null,"users":5}`,
		`{"model":` + model + `,"users":5,"sla":{"maxResponseTime":1e400}}`,
		// Two stations of demand 1e308 each: R overflows to +Inf, which a
		// response-time violation once carried to the encoder (a 500).
		`{"model":{"name":"o","thinkTime":1,"stations":[{"name":"a","kind":"cpu","servers":1,"visits":1,"serviceTime":1e308},{"name":"b","kind":"cpu","servers":1,"visits":1,"serviceTime":1e308}]},"users":3,"sla":{"maxResponseTime":1}}`,
		`{"model":` + zeroModel + `,"samples":{"stations":[{"name":"a","at":[1,2],"demands":[1e308,1e308]}]},"users":3,"limit":3,"sla":{"maxResponseTime":1}}`,
	}
	return sweeps, plans
}

// FuzzSweepPlanRequest posts fuzzed /v1/sweep (plan=false) and /v1/plan
// (plan=true) bodies to a standalone handler and through a 2-node fabric: no
// panic, no 5xx, no NaN or Inf in a 200, and the same status, error text and
// answer on both paths.
func FuzzSweepPlanRequest(f *testing.F) {
	sweeps, plans := sweepPlanSeeds()
	for _, body := range sweeps {
		f.Add(false, []byte(body))
	}
	for _, body := range plans {
		f.Add(true, []byte(body))
	}
	p := newWirePaths(f)
	entry := 0
	f.Fuzz(func(t *testing.T, plan bool, body []byte) {
		entry ^= 1
		path := "/v1/sweep"
		if plan {
			path = "/v1/plan"
		}
		p.check(t, path, body, entry)
	})
}

// TestSweepDecimatedDuplicateAxisMatchesSolve: every row of
// decimatedDupSweep — including both members of its two-member group —
// equals the final row of a /v1/solve of that point's model at that
// population (which the decimated solve path also re-derives through
// Recover), on a standalone node and through either node of a 2-node
// fabric.
func TestSweepDecimatedDuplicateAxisMatchesSolve(t *testing.T) {
	p := newWirePaths(t)
	var req modelio.SweepRequest
	if err := json.Unmarshal([]byte(decimatedDupSweep), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	points, err := req.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	// post answers body on the standalone node (entry -1) or through a
	// fabric node, and requires a 200.
	post := func(entry int, path string, body []byte) []byte {
		t.Helper()
		if entry < 0 {
			rec := httptest.NewRecorder()
			p.standalone.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("standalone %s: %d %s", path, rec.Code, rec.Body)
			}
			return rec.Body.Bytes()
		}
		resp, err := http.Post(p.entries[entry]+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d %s: %d %s", entry, path, resp.StatusCode, reply)
		}
		return reply
	}
	for entry := -1; entry < len(p.entries); entry++ {
		var got modelio.SweepResponse
		if err := json.Unmarshal(post(entry, "/v1/sweep", []byte(decimatedDupSweep)), &got); err != nil {
			t.Fatal(err)
		}
		if got.GridSize != len(points) || len(got.Points) != len(points) {
			t.Fatalf("entry %d: grid %d with %d points, want %d", entry, got.GridSize, len(got.Points), len(points))
		}
		for i, pt := range points {
			gp := got.Points[i]
			if gp.Error != "" || !reflect.DeepEqual(gp.Point, pt) || len(gp.Rows) != len(req.Populations) {
				t.Fatalf("entry %d point %d: %+v (want point %+v)", entry, i, gp, pt)
			}
			for j, n := range req.Populations {
				solve := req.PointRequest(pt)
				solve.MaxN = n
				body, err := json.Marshal(solve)
				if err != nil {
					t.Fatal(err)
				}
				var sol modelio.SolveResponse
				if err := json.Unmarshal(post(entry, "/v1/solve", body), &sol); err != nil {
					t.Fatal(err)
				}
				tr := sol.Trajectory
				last := len(tr.N) - 1
				if tr.N[last] != n {
					t.Fatalf("solve to %d ended at %d", n, tr.N[last])
				}
				want := modelio.SweepRow{N: n, X: tr.X[last], R: tr.R[last], Cycle: tr.Cycle[last]}
				for _, u := range tr.FinalUtil {
					want.BottleneckUtil = max(want.BottleneckUtil, u)
				}
				if gp.Rows[j] != want {
					t.Errorf("entry %d point %d: sweep row %+v, solve row %+v", entry, i, gp.Rows[j], want)
				}
			}
		}
	}
}
