package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/modelio"
)

// TestSolveDecimated checks the decimated solve path end to end: stored rows
// land on stride multiples (plus the final population), every value is
// bit-identical to the dense solve, and a follow-up request whose maxN falls
// between stored rows is served from the cache with its final row recovered
// from the state rebuilt at the nearest stored row.
func TestSolveDecimated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := testModel()
	want, err := core.ExactMVA(m, 100)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoExact, Model: m, MaxN: 100, Decimate: 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out modelio.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	tr := out.Trajectory
	if tr == nil || len(tr.N) != 15 { // 7, 14, ..., 98, plus the final 100
		t.Fatalf("decimated trajectory has %d rows, want 15", len(tr.N))
	}
	for i, n := range tr.N {
		if n%7 != 0 && n != 100 {
			t.Fatalf("row %d is population %d: neither a stride multiple nor the final", i, n)
		}
		if tr.X[i] != want.X[n-1] || tr.R[i] != want.R[n-1] || tr.Cycle[i] != want.Cycle[n-1] {
			t.Fatalf("n=%d: decimated row differs from dense solve: X %v vs %v", n, tr.X[i], want.X[n-1])
		}
	}
	for k := range want.StationNames {
		if tr.FinalUtil[k] != want.UtilRow(99)[k] || tr.FinalQueueLen[k] != want.QueueLenRow(99)[k] {
			t.Fatalf("station %d: decimated final row differs from dense", k)
		}
	}

	// maxN 95 is covered by the cached entry (solved to 100) but not stored
	// (between 91 and 98): a cache hit whose final row is recovered.
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoExact, Model: m, MaxN: 95, Decimate: 7,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	var out2 modelio.SolveResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Cached {
		t.Fatal("covered decimated request was not a cache hit")
	}
	tr2 := out2.Trajectory
	if n := tr2.N[len(tr2.N)-1]; n != 95 {
		t.Fatalf("final row is population %d, want the requested 95", n)
	}
	last := len(tr2.N) - 1
	if tr2.X[last] != want.X[94] || tr2.R[last] != want.R[94] {
		t.Fatalf("recovered final row differs from dense: X %v vs %v", tr2.X[last], want.X[94])
	}
	for k := range want.StationNames {
		if tr2.FinalUtil[k] != want.UtilRow(94)[k] {
			t.Fatalf("station %d: recovered final util differs from dense", k)
		}
	}
}

// TestSolveDecimateKeySeparation checks dense and decimated requests for the
// same model never share a cache entry: a decimated entry must not answer a
// dense request (it lacks rows) and vice versa.
func TestSolveDecimateKeySeparation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	m := testModel()
	for i, req := range []modelio.SolveRequest{
		{Algorithm: modelio.AlgoExact, Model: m, MaxN: 50},
		{Algorithm: modelio.AlgoExact, Model: m, MaxN: 50, Decimate: 5},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out modelio.SolveResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			t.Fatalf("solve %d hit a cache entry of the other geometry", i)
		}
	}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("cache has %d entries, want 2 (dense and decimated)", n)
	}
	// Decimate 1 is canonically dense: it must hit the dense entry.
	resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoExact, Model: m, MaxN: 50, Decimate: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out modelio.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Fatal("decimate=1 request missed the dense cache entry")
	}
}

// TestSolveDeepOverRowCap checks the population cap is charged on stored
// rows, not populations: a deep decimated solve far past MaxN is admitted
// while the same population dense is refused.
func TestSolveDeepOverRowCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 1000})
	m := testModel()
	resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoExact, Model: m, MaxN: 100_000, Decimate: 250,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deep decimated solve refused: status %d: %s", resp.StatusCode, body)
	}
	var out modelio.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	tr := out.Trajectory
	if n := tr.N[len(tr.N)-1]; n != 100_000 {
		t.Fatalf("deep solve ended at %d, want 100000", n)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoExact, Model: m, MaxN: 100_000,
	})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("dense solve over the cap: status %d, want 400", resp2.StatusCode)
	}
}

// TestSweepDecimated checks sweep fan-out over a decimated trajectory:
// populations that fall between stored rows are recovered from their states
// and every reported row is bit-identical to the dense sweep's.
func TestSweepDecimated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := testModel()
	base := modelio.SweepRequest{
		SolveRequest: modelio.SolveRequest{Algorithm: modelio.AlgoExact, Model: m},
		Populations:  []int{40, 90}, // neither is a multiple of 7
		ThinkTimes:   []float64{0.5, 1.5},
	}
	dec := base
	dec.Decimate = 7

	respD, bodyD := postJSON(t, ts.URL+"/v1/sweep", dec)
	if respD.StatusCode != http.StatusOK {
		t.Fatalf("decimated sweep: status %d: %s", respD.StatusCode, bodyD)
	}
	respR, bodyR := postJSON(t, ts.URL+"/v1/sweep", base)
	if respR.StatusCode != http.StatusOK {
		t.Fatalf("dense sweep: status %d: %s", respR.StatusCode, bodyR)
	}
	var got, ref modelio.SweepResponse
	if err := json.Unmarshal(bodyD, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyR, &ref); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(ref.Points) || len(got.Points) != 2 {
		t.Fatalf("grid sizes differ: %d vs %d", len(got.Points), len(ref.Points))
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
				t.Fatalf("point %d row %d: decimated sweep differs from dense: %+v vs %+v",
					i, j, gp.Rows[j], rp.Rows[j])
			}
		}
		if gp.Bottleneck != rp.Bottleneck {
			t.Fatalf("point %d: bottleneck differs: %s vs %s", i, gp.Bottleneck, rp.Bottleneck)
		}
	}
}
