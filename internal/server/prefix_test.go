package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/modelio"
)

// TestSolvePrefixHitBelowCachedMaxN: after a solve at maxN=40, a request for
// a smaller population of the same model is a cache hit served from the
// stored trajectory's prefix — not a fresh solve, not a full-length replay.
func TestSolvePrefixHitBelowCachedMaxN(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{Model: testModel(), MaxN: 40})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming solve: %d %s", resp.StatusCode, body)
	}
	_, body2 := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{Model: testModel(), MaxN: 20})
	var out modelio.SolveResponse
	if err := json.Unmarshal(body2, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("maxN below the cached population was not a hit")
	}
	tr := out.Trajectory
	if len(tr.N) != 20 || tr.N[19] != 20 {
		t.Fatalf("prefix trajectory rows: %v", tr.N)
	}
	want, _, err := core.ExactMVAMultiServer(testModel(), 20, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.X[19] != want.X[19] {
		t.Errorf("prefix X=%g, library X=%g", tr.X[19], want.X[19])
	}
	// FinalUtil must describe population 20, not the cached 40.
	if tr.FinalUtil[0] != want.UtilRow(19)[0] {
		t.Errorf("prefix FinalUtil=%g, library=%g", tr.FinalUtil[0], want.UtilRow(19)[0])
	}
}

// TestSolveExtendMetrics: growing maxN extends the cached solver in place.
// The run counters tell the story: two solver executions, one of them a
// resume — and only one cache entry ever exists.
func TestSolveExtendMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, maxN := range []int{20, 50} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{Model: testModel(), MaxN: maxN})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve maxN=%d: %d %s", maxN, resp.StatusCode, body)
		}
		var out modelio.SolveResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			t.Errorf("solve maxN=%d reported Cached=true; extensions are misses", maxN)
		}
	}
	if got := s.cache.len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1 shared across populations", got)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"solverd_solves_total 2",
		"solverd_solve_extends_total 1",
		"solverd_cache_entries 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestSolveConcurrentExtends hammers one model with racing requests at mixed
// populations; run with -race this exercises prefix snapshots being read
// while the shared solver extends.
func TestSolveConcurrentExtends(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			maxN := 10 + 15*(g%4)
			resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{Model: testModel(), MaxN: maxN})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("maxN=%d: %d %s", maxN, resp.StatusCode, body)
				return
			}
			var out modelio.SolveResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Error(err)
				return
			}
			if n := len(out.Trajectory.N); n != maxN {
				t.Errorf("maxN=%d: trajectory has %d rows", maxN, n)
			}
		}(g)
	}
	wg.Wait()
	want, _, err := core.ExactMVAMultiServer(testModel(), 55, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{Model: testModel(), MaxN: 55})
	var out modelio.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trajectory.X[54] != want.X[54] {
		t.Errorf("after concurrent extends X=%g, library X=%g", out.Trajectory.X[54], want.X[54])
	}
}

// TestSweepPlannerCollapsesGroups: grid points resolving to the same model
// (duplicate axis values, overrides equal to the base) share one solve; the
// solve counter equals the number of *distinct* models, not grid points.
func TestSweepPlannerCollapsesGroups(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"model":       testModel(),
		"populations": []int{10, 25},
		// The base model already has 4 app/cpu servers: {4, 4, 8} holds only
		// two distinct models.
		"servers": map[string][]int{"app/cpu": {4, 4, 8}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var out modelio.SweepResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.GridSize != 3 {
		t.Fatalf("grid size %d, want 3", out.GridSize)
	}
	for i, p := range out.Points {
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", i, p.Error)
		}
		if len(p.Rows) != 2 {
			t.Fatalf("point %d rows: %+v", i, p.Rows)
		}
	}
	// The two servers=4 points are the same group: identical results, and
	// the planner ran exactly one solve per distinct model.
	if out.Points[0].Rows[1].X != out.Points[1].Rows[1].X {
		t.Error("identical grid points diverged")
	}
	if got := s.metrics.solveRuns.Load(); got != 2 {
		t.Errorf("sweep ran %d solves, want 2 (one per distinct model)", got)
	}
	if got := s.cache.len(); got != 2 {
		t.Errorf("cache holds %d entries, want 2", got)
	}
}

// TestSweepFullyCachedSkipsPool: a sweep answered entirely from the cache
// must complete even when every worker slot is taken — cache hits bypass
// pool admission.
func TestSweepFullyCachedSkipsPool(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sweep := map[string]any{
		"model":       testModel(),
		"populations": []int{10, 25},
		"thinkTimes":  []float64{1, 2},
	}
	if resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming sweep: %d %s", resp.StatusCode, body)
	}
	// Occupy the only worker slot for the duration of the repeat sweep.
	if err := s.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.release()
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached sweep with a saturated pool: %d %s", resp.StatusCode, body)
	}
	var out modelio.SweepResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, p := range out.Points {
		if !p.Cached || p.Error != "" {
			t.Errorf("point %d: cached=%v err=%q", i, p.Cached, p.Error)
		}
	}
}

// TestPprofGatedByFlag: the profiling endpoints exist only when EnablePprof
// is set.
func TestPprofGatedByFlag(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		t.Run(fmt.Sprintf("enabled=%v", enabled), func(t *testing.T) {
			_, ts := newTestServer(t, Config{EnablePprof: enabled})
			resp, _ := getBody(t, ts.URL+"/debug/pprof/")
			if enabled && resp.StatusCode != http.StatusOK {
				t.Errorf("/debug/pprof/ = %d with pprof enabled, want 200", resp.StatusCode)
			}
			if !enabled && resp.StatusCode != http.StatusNotFound {
				t.Errorf("/debug/pprof/ = %d with pprof disabled, want 404", resp.StatusCode)
			}
		})
	}
}
