package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/modelio"
	"repro/internal/queueing"
	"repro/internal/server"
)

// TestDecodedModelStaysUnchanged: the solve decoder hands every request whose
// body repeats a model or samples span the same memoized values, so no path
// may write to them. One mvasd body's shared Model and Samples go through a
// standalone node's cold solve, prefix hit, extend, decimated solve with a
// recovered final row and sweep, then a 2-node cluster's forward and deep
// solve; afterwards they must still equal a deep copy taken before.
func TestDecodedModelStaysUnchanged(t *testing.T) {
	model := testModel(0.5)
	samples := &modelio.SamplesFile{Stations: []modelio.StationSamples{
		{Name: "web/cpu", At: []float64{1, 40, 120}, Demands: []float64{0.02, 0.018, 0.017}},
		{Name: "db/disk", At: []float64{1, 40, 120}, Demands: []float64{0.008, 0.0075, 0.007}},
	}}
	body := func(maxN, decimate int) []byte {
		raw, err := json.Marshal(modelio.SolveRequest{
			Algorithm: modelio.AlgoMVASD, Model: model, Samples: samples, MaxN: maxN, Decimate: decimate,
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var shared modelio.SolveRequest
	if err := modelio.DecodeSolveRequest(body(1, 0), &shared); err != nil {
		t.Fatal(err)
	}
	var again modelio.SolveRequest
	if err := modelio.DecodeSolveRequest(body(2, 0), &again); err != nil {
		t.Fatal(err)
	}
	if again.Model != shared.Model || again.Samples != shared.Samples {
		t.Fatal("the decoder did not share the repeated model and samples")
	}
	wantModel, wantSamples := copyModel(shared.Model), copySamples(shared.Samples)

	post := func(url string, raw []byte) (http.Header, []byte) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", url, resp.StatusCode, out.Bytes())
		}
		return resp.Header, out.Bytes()
	}

	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, c := range []struct {
		maxN, decimate int
		cached         bool
	}{
		{100, 0, false}, // cold
		{60, 0, true},   // prefix hit
		{180, 0, false}, // extend
		{150, 7, false}, // decimated
		{95, 7, true},   // decimated hit, final row recovered
	} {
		var out modelio.SolveResponse
		_, reply := post(ts.URL+"/v1/solve", body(c.maxN, c.decimate))
		if err := json.Unmarshal(reply, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached != c.cached {
			t.Fatalf("maxN %d decimate %d: cached %v, want %v", c.maxN, c.decimate, out.Cached, c.cached)
		}
	}
	sweep := &modelio.SweepRequest{
		SolveRequest: modelio.SolveRequest{Algorithm: modelio.AlgoMVASD, Model: shared.Model, Samples: shared.Samples, Decimate: 7},
		Populations:  []int{40, 90},
		ThinkTimes:   []float64{0.25, 0.5},
		Servers:      map[string][]int{"web/cpu": {2, 4}},
	}
	if err := sweep.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Sweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Error != "" {
			t.Fatalf("sweep point %+v: %s", p.Point, p.Error)
		}
	}

	nodes := startCluster(t, 2, nil)
	req := shared
	req.MaxN = 120
	owner := nodes[0].gw.Ring().Owners(keyOf(t, &req), 1)[0]
	for _, n := range nodes {
		if n.addr == owner {
			continue
		}
		if h, _ := post("http://"+n.addr+"/v1/solve", body(120, 0)); h.Get(headerPeer) != owner {
			t.Fatalf("solve via %s served by %q, want a forward to %s", n.addr, h.Get(headerPeer), owner)
		}
	}
	if _, stream := post("http://"+nodes[0].addr+"/v1/solve?deep=1", body(2000, 7)); !strings.Contains(string(stream), `"done":true`) {
		t.Fatalf("deep solve did not finish: %s", stream)
	}

	if !reflect.DeepEqual(shared.Model, wantModel) || !reflect.DeepEqual(shared.Samples, wantSamples) {
		t.Fatalf("a solve path wrote to the shared values:\nmodel   %+v\nwant    %+v\nsamples %+v\nwant    %+v",
			shared.Model, wantModel, shared.Samples, wantSamples)
	}
	if got, want := sharedBits(shared.Model, shared.Samples), sharedBits(wantModel, wantSamples); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared float bits %x, want %x", got, want)
	}
	var last modelio.SolveRequest
	if err := modelio.DecodeSolveRequest(body(3, 0), &last); err != nil {
		t.Fatal(err)
	}
	if last.Model != shared.Model || last.Samples != shared.Samples {
		t.Fatal("the shared values left the memo during the test, so the nodes may have decoded their own")
	}
}

func copyModel(m *queueing.Model) *queueing.Model {
	c := *m
	c.Stations = append([]queueing.Station(nil), m.Stations...)
	return &c
}

func copySamples(s *modelio.SamplesFile) *modelio.SamplesFile {
	c := &modelio.SamplesFile{Stations: append([]modelio.StationSamples(nil), s.Stations...)}
	for i, st := range c.Stations {
		c.Stations[i].At = append([]float64(nil), st.At...)
		c.Stations[i].Demands = append([]float64(nil), st.Demands...)
	}
	return c
}

// sharedBits lists every float of a model and samples as raw bits, so a
// comparison tells -0 from 0 and sees NaN payloads.
func sharedBits(m *queueing.Model, s *modelio.SamplesFile) []uint64 {
	out := []uint64{math.Float64bits(m.ThinkTime)}
	for _, st := range m.Stations {
		out = append(out, math.Float64bits(st.Visits), math.Float64bits(st.ServiceTime))
	}
	for _, st := range s.Stations {
		for _, f := range append(append([]float64(nil), st.At...), st.Demands...) {
			out = append(out, math.Float64bits(f))
		}
	}
	return out
}
