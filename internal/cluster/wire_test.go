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

// wireMaxN is the population cap of every node in the wire tests; it keeps
// fuzzed solves short.
const wireMaxN = 1000

// wirePaths is a standalone solverd handler beside an in-process 2-node
// fabric whose servers share its config, so one body can be answered on
// both paths and the replies compared.
type wirePaths struct {
	standalone http.Handler
	entries    []string
}

func newWirePaths(t testing.TB) *wirePaths {
	t.Helper()
	tuneSrv := func(_ string, c *server.Config) { c.MaxN = wireMaxN }
	cfg := server.Config{CacheSize: 64, Workers: 4, RequestTimeout: 20 * time.Second,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	tuneSrv("", &cfg)
	nodes := startClusterTuned(t, 2, nil, tuneSrv)
	return &wirePaths{
		standalone: server.New(cfg).Handler(),
		entries:    []string{"http://" + nodes[0].addr + "/v1/solve", "http://" + nodes[1].addr + "/v1/solve"},
	}
}

// check posts body to the standalone handler and to entry (an index into
// the fabric's nodes) and asserts: no 5xx; the same status on both paths;
// the same error text on a non-200; and on a 200 a reply that decodes with
// finite floats and carries the same trajectory.
func (p *wirePaths) check(t *testing.T, body []byte, entry int) {
	t.Helper()
	rec := httptest.NewRecorder()
	p.standalone.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	resp, err := http.Post(p.entries[entry], "application/json", bytes.NewReader(body))
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
	var a, b modelio.SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
		t.Fatalf("body %q: standalone 200 does not decode: %v", body, err)
	}
	if err := json.Unmarshal(reply, &b); err != nil {
		t.Fatalf("body %q: gateway 200 does not decode: %v", body, err)
	}
	if !reflect.DeepEqual(a.Trajectory, b.Trajectory) {
		t.Fatalf("body %q: standalone trajectory %+v, gateway %+v", body, a.Trajectory, b.Trajectory)
	}
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
				p.check(t, []byte(body), entry)
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
		p.check(t, body, entry)
	})
}
