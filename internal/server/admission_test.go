package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/selfmodel"
)

// admTruth mirrors the selfmodel package's deterministic ground truth so the
// server's own monitor can be made ready without wall-clock sampling.
const (
	admTruthWorkers = 4
	admTruthDW      = 0.010
	admTruthDD      = 0.030
	admTruthMaxN    = 64
)

// makeSelfReady feeds the server's self-model synthetic windows derived from
// the ground truth until it is ready, and returns its predicted MaxSafeN.
func makeSelfReady(t *testing.T, s *Server) int {
	t.Helper()
	dm := core.FuncDemands{K: 2, F: func(k, _ int) float64 {
		if k == 0 {
			return admTruthDW
		}
		return admTruthDD
	}}
	sol, err := core.NewMVASDSolver(selfmodel.SelfModel(admTruthWorkers), dm, core.MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Release()
	if err := sol.Run(admTruthMaxN); err != nil {
		t.Fatal(err)
	}
	res := sol.Result()

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
			BusySeconds:     x * admTruthDW,
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

// TestEnforceShedsWithRetryAfter drives an enforce-mode node past its
// predicted knee and checks the shed contract: 429 with a Retry-After header,
// never a 5xx, the refusal dropped from the demand samples, and recovery once
// the synthetic load drains.
func TestEnforceShedsWithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:   admTruthWorkers,
		Self:      selfmodel.Config{MaxN: admTruthMaxN},
		Admission: admission.Config{Mode: admission.ModeEnforce},
	})
	safe := makeSelfReady(t, s)

	// Park `safe` phantom requests in flight: the next arrival is the
	// (safe+1)-th concurrent request, one past the predicted safe concurrency.
	for i := 0; i < safe; i++ {
		s.SelfMonitor().RequestBegin()
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{Model: testModel(), MaxN: 20})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After header %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if !bytes.Contains(body, []byte("past predicted safe concurrency")) {
		t.Fatalf("shed body: %s", body)
	}
	// The refusal took microseconds: it must drop out of the in-flight
	// integral instead of completing into the demand windows.
	if got := s.SelfMonitor().InFlight(); got != safe {
		t.Fatalf("in-flight after shed: %d, want the %d phantoms", got, safe)
	}

	// Introspection stays open while solves shed.
	if resp, _ := getBody(t, ts.URL+"/v1/status"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/status while shedding: %d", resp.StatusCode)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"solverd_admission_shed_total 1",
		"solverd_admission_over_capacity_total 1",
		`solverd_admission_mode{mode="enforce"} 1`,
		`solverd_requests_total{handler="solve",code="429"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain the phantoms: the very next request is admitted again.
	for i := 0; i < safe; i++ {
		s.SelfMonitor().RequestEnd(10 * time.Millisecond)
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{Model: testModel(), MaxN: 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status %d: %s", resp.StatusCode, body)
	}

	// The shed flowed into the self-report's admission snapshot.
	sr := s.SelfReport()
	if sr.Admission == nil || sr.Admission.Shed != 1 || sr.Admission.Mode != "enforce" {
		t.Fatalf("self-report admission snapshot: %+v", sr.Admission)
	}
}

// TestObserveModeByteIdentical solves the same requests on an off-mode node
// and an observe-mode node driven past their (identical) predicted knees:
// observe must count what enforce would have done while the responses stay
// byte-identical to off — the deterministic backward-compatibility check.
func TestObserveModeByteIdentical(t *testing.T) {
	mk := func(mode admission.Mode) (*Server, string) {
		s, ts := newTestServer(t, Config{
			Workers:   admTruthWorkers,
			Self:      selfmodel.Config{MaxN: admTruthMaxN},
			Admission: admission.Config{Mode: mode},
		})
		safe := makeSelfReady(t, s)
		for i := 0; i < safe+2; i++ {
			s.SelfMonitor().RequestBegin() // both nodes sit past the knee
		}
		return s, ts.URL
	}
	sOff, urlOff := mk(admission.ModeOff)
	sObs, urlObs := mk(admission.ModeObserve)

	// strip removes the one wall-clock field so the comparison is exact.
	strip := func(t *testing.T, body []byte) string {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("unmarshal: %v: %s", err, body)
		}
		delete(m, "elapsedMs")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	for _, req := range []modelio.SolveRequest{
		{Model: testModel(), MaxN: 40},
		{Algorithm: modelio.AlgoMVASD, Model: testModel(), Samples: testSamples(), MaxN: 120, Every: 40},
		{Model: testModel(), MaxN: 40}, // repeat: the cached path too
	} {
		respOff, bodyOff := postJSON(t, urlOff+"/v1/solve", req)
		respObs, bodyObs := postJSON(t, urlObs+"/v1/solve", req)
		if respOff.StatusCode != respObs.StatusCode {
			t.Fatalf("status diverged: off=%d observe=%d", respOff.StatusCode, respObs.StatusCode)
		}
		if respObs.Header.Get("Retry-After") != "" {
			t.Fatal("observe mode set a Retry-After header")
		}
		if off, obs := strip(t, bodyOff), strip(t, bodyObs); off != obs {
			t.Fatalf("bodies diverged:\noff:     %s\nobserve: %s", off, obs)
		}
	}

	// The gate did evaluate on the observe node — the counters prove it —
	// while the off node never engaged.
	if st := sObs.Admission().Stats(); st.OverCapacity != 3 || st.Admitted != 3 {
		t.Fatalf("observe counters: %+v", st)
	}
	if st := sOff.Admission().Stats(); st.Admitted != 0 || st.OverCapacity != 0 {
		t.Fatalf("off counters engaged: %+v", st)
	}
}

// TestCoalescedSolvesShareOneRun holds one solve of a model in flight while
// more requests for it, at populations up to the leader's, block on the
// cache entry's lock: exactly one backend run happens, every waiter is
// answered from it with rows bit-identical to a solo solve of its own
// population, and a client hanging up mid-wait disturbs nobody.
func TestCoalescedSolvesShareOneRun(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.testHookSolveStart = func(context.Context) {
		once.Do(func() { close(started) })
		<-release
	}

	type result struct {
		status int
		out    modelio.SolveResponse
	}
	const leaderN = 40
	populations := []int{leaderN, 8, 40, 24, 16} // [0] leads, the rest wait
	results := make([]result, len(populations))
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
				Algorithm: modelio.AlgoExact, Model: testModel(), MaxN: populations[i],
			})
			results[i].status = resp.StatusCode
			if err := json.Unmarshal(body, &results[i].out); err != nil {
				t.Errorf("request %d: %v: %s", i, err, body)
			}
		}()
	}
	post(0)
	<-started
	for i := 1; i < len(populations); i++ {
		post(i)
	}
	waiters := len(populations) - 1
	waitCond(t, func() bool { return s.Admission().Stats().CoalesceWaiters == waiters })

	// One more client blocks on the entry lock, then hangs up.
	ctx, cancel := context.WithCancel(context.Background())
	b, _ := json.Marshal(modelio.SolveRequest{Algorithm: modelio.AlgoExact, Model: testModel(), MaxN: 32})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	waitCond(t, func() bool { return s.Admission().Stats().CoalesceWaiters == waiters+1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled client got a response")
	}
	waitCond(t, func() bool { return s.Admission().Stats().CoalesceWaiters == waiters })
	close(release)
	wg.Wait()

	if runs := s.metrics.solveRuns.Load(); runs != 1 {
		t.Fatalf("backend solver runs: %d, want exactly 1 for %d requests", runs, len(populations)+1)
	}
	want, err := core.ExactMVA(testModel(), leaderN)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		tr := r.out.Trajectory
		if tr == nil || len(tr.X) != populations[i] {
			t.Fatalf("request %d: got %d rows, want its own %d", i, len(tr.X), populations[i])
		}
		for j := range tr.X {
			if tr.X[j] != want.X[j] || tr.R[j] != want.R[j] {
				t.Fatalf("request %d row %d: X=%g R=%g, solo solve X=%g R=%g",
					i, j, tr.X[j], tr.R[j], want.X[j], want.R[j])
			}
		}
		if r.out.Cached != (i > 0) {
			t.Fatalf("request %d: cached=%v", i, r.out.Cached)
		}
	}
	if st := s.Admission().Stats(); st.Coalesced != uint64(waiters) || st.CoalesceWaiters != 0 {
		t.Fatalf("coalesced counter / waiter gauge: %+v", st)
	}
	if _, metrics := getBody(t, ts.URL+"/metrics"); !strings.Contains(metrics, "solverd_admission_coalesced_total "+strconv.Itoa(waiters)+"\n") {
		t.Errorf("metrics missing solverd_admission_coalesced_total %d", waiters)
	}
	_, body := getBody(t, ts.URL+"/v1/self")
	var self modelio.SelfResponse
	if err := json.Unmarshal([]byte(body), &self); err != nil {
		t.Fatal(err)
	}
	if self.Admission == nil || self.Admission.Coalesced != uint64(waiters) {
		t.Fatalf("/v1/self admission: %s", body)
	}
}

// waitCond polls cond until it holds or a deadline passes.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}
