package selfmodel

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/promtest"
	"repro/internal/queueing"
)

// truth is the ground-truth node used by the deterministic validation: a
// 4-worker pool with a 10ms solve burst and 30ms of off-worker overhead.
const (
	truthWorkers = 4
	truthDW      = 0.010 // worker service demand (s)
	truthDD      = 0.030 // delay (overhead) demand (s)
	truthMaxN    = 64
)

// solveTruth runs MVASD over the ground-truth constant demands — the same
// model shape the monitor estimates, with the answer known exactly.
func solveTruth(t *testing.T) *core.Result {
	t.Helper()
	dm := core.FuncDemands{K: 2, F: func(k, _ int) float64 {
		if k == 0 {
			return truthDW
		}
		return truthDD
	}}
	sol, err := core.NewMVASDSolver(SelfModel(truthWorkers), dm, core.MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Release()
	if err := sol.Run(truthMaxN); err != nil {
		t.Fatal(err)
	}
	return sol.Result()
}

// truthWindow derives the window a node operating exactly on the ground
// truth would aggregate at population n: Little's Law supplies every
// integral, and the latency reservoir holds the true cycle time.
func truthWindow(res *core.Result, n int) Window {
	x := res.X[n-1]
	cycle := res.Cycle[n-1]
	lat := make([]time.Duration, 32)
	for i := range lat {
		lat[i] = time.Duration(cycle * float64(time.Second))
	}
	return Window{
		Elapsed:         time.Second,
		Completions:     x,
		BusySeconds:     x * truthDW,                    // U_workers = X·D_w
		StationSeconds:  x * res.ResidenceRow(n - 1)[0], // queued+busy at workers
		InFlightSeconds: float64(n),                     // closed system, Z=0
		Latencies:       lat,
	}
}

// TestDeterministicValidation drives the monitor with synthetic load derived
// from a known ground truth (the in-process analogue of a cmd/loadtest
// campaign) and checks the self-model's acceptance bounds: the predicted
// saturation knee and p50 must stay inside the paper's 3%/9% deviation
// bounds of the measured values, with every scored window unbreached.
func TestDeterministicValidation(t *testing.T) {
	res := solveTruth(t)

	m := New(Config{Workers: truthWorkers, MaxN: truthMaxN})
	populations := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	var rep *Report
	for _, n := range populations {
		w := truthWindow(res, n)
		for i := 0; i < m.Config().Estimate.MinSamples; i++ {
			rep = m.ObserveWindow(w)
		}
	}
	if rep == nil || !rep.Ready {
		t.Fatalf("self-model not ready after %d windows: %+v", len(populations)*4, rep)
	}

	// Truth knee: first population at the saturation-utilization threshold.
	kneeTruth := 0
	for i := 0; i < truthMaxN; i++ {
		if res.UtilRow(i)[0] >= m.Config().SaturationUtil {
			kneeTruth = i + 1
			break
		}
	}
	if kneeTruth == 0 {
		t.Fatal("ground truth never saturates inside the solved range")
	}
	if !rep.Saturated || rep.KneeN == 0 {
		t.Fatalf("predicted curve not saturated: %+v", rep)
	}
	if dev := math.Abs(float64(rep.KneeN-kneeTruth)) / float64(kneeTruth); dev > estimate.ThroughputDeviationBound {
		t.Errorf("predicted knee %d vs truth %d: deviation %.3f > %.2f",
			rep.KneeN, kneeTruth, dev, estimate.ThroughputDeviationBound)
	}

	// Predicted vs measured at the last operating point (n=32).
	if rep.ObservedP50 <= 0 || rep.PredictedP50 <= 0 {
		t.Fatalf("missing p50s: %+v", rep)
	}
	if dev := math.Abs(rep.PredictedP50-rep.ObservedP50) / rep.ObservedP50; dev > estimate.CycleTimeDeviationBound {
		t.Errorf("p50 predicted %.4fs vs measured %.4fs: deviation %.3f > %.2f",
			rep.PredictedP50, rep.ObservedP50, dev, estimate.CycleTimeDeviationBound)
	}
	if dev := math.Abs(rep.PredictedX-rep.ObservedX) / rep.ObservedX; dev > estimate.ThroughputDeviationBound {
		t.Errorf("throughput predicted %.2f vs measured %.2f: deviation %.3f > %.2f",
			rep.PredictedX, rep.ObservedX, dev, estimate.ThroughputDeviationBound)
	}

	// Every scored metric stayed inside its bound over the whole run.
	if len(rep.Deviations) == 0 {
		t.Fatal("no deviations scored")
	}
	for _, d := range rep.Deviations {
		if d.Breached || d.Breaches != 0 {
			t.Errorf("metric %q breached its bound: %+v", d.Metric, d)
		}
		if d.Ratio > d.Bound {
			t.Errorf("metric %q ratio %.3f > bound %.2f", d.Metric, d.Ratio, d.Bound)
		}
	}

	// Headroom: nothing is in flight, so it equals the safe concurrency,
	// which the knee caps (no p99 bound configured).
	if rep.MaxSafeN != rep.KneeN {
		t.Errorf("MaxSafeN = %d, want knee %d", rep.MaxSafeN, rep.KneeN)
	}
	if rep.Headroom != rep.MaxSafeN {
		t.Errorf("Headroom = %d with nothing in flight, want %d", rep.Headroom, rep.MaxSafeN)
	}
	if rep.ShedAdvised {
		t.Error("shed advised with an idle node")
	}
	if len(rep.Curve) == 0 || len(rep.Curve) > 64 {
		t.Errorf("curve has %d points, want 1..64", len(rep.Curve))
	}
}

// TestP99BoundTightensHeadroom configures a p99 bound below the knee's
// latency and checks the safe concurrency comes from the bound, not the knee.
func TestP99BoundTightensHeadroom(t *testing.T) {
	res := solveTruth(t)
	// The truth cycle grows with n; pick a bound between cycle(1) and
	// cycle(maxN) so some populations honor it and some do not.
	// Cycle at n=8, nudged one tick up so the float->Duration truncation
	// cannot land the bound a hair below the curve's own value.
	bound := time.Duration(res.Cycle[7]*float64(time.Second)) + time.Nanosecond
	m := New(Config{Workers: truthWorkers, MaxN: truthMaxN, P99Bound: bound})
	var rep *Report
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		w := truthWindow(res, n)
		for i := 0; i < m.Config().Estimate.MinSamples; i++ {
			rep = m.ObserveWindow(w)
		}
	}
	if rep == nil || !rep.Ready {
		t.Fatal("not ready")
	}
	if rep.P99LimitN == 0 {
		t.Fatalf("no p99 limit computed: %+v", rep)
	}
	// All latencies equal the cycle (shape = 1), so the limit is the largest
	// n with cycle(n) <= cycle(8): n=8 exactly.
	if rep.P99LimitN != 8 {
		t.Errorf("P99LimitN = %d, want 8", rep.P99LimitN)
	}
	if rep.MaxSafeN != 8 || rep.Headroom != 8 {
		t.Errorf("MaxSafeN/Headroom = %d/%d, want 8/8", rep.MaxSafeN, rep.Headroom)
	}
}

// TestIntegrators drives the event hooks on a manual clock and checks the
// window aggregation: one request that waits, runs, and completes must
// produce the exact Little's-Law integrals.
func TestIntegrators(t *testing.T) {
	now := time.Unix(1000, 0)
	m := New(Config{Workers: 2, Now: func() time.Time { return now }})

	m.RequestBegin()
	m.WaitBegin()
	now = now.Add(100 * time.Millisecond) // queued 100ms
	m.WorkerBegin()
	now = now.Add(300 * time.Millisecond) // busy 300ms
	m.WorkerEnd()
	now = now.Add(100 * time.Millisecond) // post-worker overhead 100ms
	m.RequestEnd(500 * time.Millisecond)
	now = now.Add(500 * time.Millisecond)

	rep := m.Advance(now)
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Windows != 1 || rep.Completions != 1 {
		t.Fatalf("windows/completions = %d/%d", rep.Windows, rep.Completions)
	}
	if got, want := rep.ObservedX, 1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("ObservedX = %g, want %g", got, want)
	}
	// In-flight integral: 500ms over a 1s window.
	if got, want := rep.ObservedConcurrency, 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("ObservedConcurrency = %g, want %g", got, want)
	}
	if got, want := rep.ObservedP50, 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("ObservedP50 = %g, want %g", got, want)
	}
	if rep.InFlight != 0 {
		t.Errorf("InFlight = %d after completion", rep.InFlight)
	}
	// A second, empty window carries the observations forward.
	now = now.Add(time.Second)
	rep = m.Advance(now)
	if rep.Windows != 2 || rep.EmptyWindows != 1 {
		t.Fatalf("windows/empty = %d/%d", rep.Windows, rep.EmptyWindows)
	}
	if rep.ObservedX != 1.0 {
		t.Errorf("empty window dropped the last observation: %+v", rep)
	}
}

// TestWaitAbort undoes a cancelled wait so the station integral cannot leak.
func TestWaitAbort(t *testing.T) {
	now := time.Unix(2000, 0)
	m := New(Config{Workers: 1, Now: func() time.Time { return now }})
	m.RequestBegin()
	m.WaitBegin()
	now = now.Add(200 * time.Millisecond)
	m.WaitAbort()
	m.RequestEnd(200 * time.Millisecond)
	now = now.Add(800 * time.Millisecond)
	rep := m.Advance(now)
	if rep.Completions != 1 {
		t.Fatalf("completions = %d", rep.Completions)
	}
	if m.InFlight() != 0 {
		t.Errorf("in-flight = %d after abort+end", m.InFlight())
	}
}

// TestNilMonitor checks every hook, the advance path and the metrics writer
// are no-ops on a nil monitor — the pool and middleware never guard them.
func TestNilMonitor(t *testing.T) {
	var m *Monitor
	m.RequestBegin()
	m.RequestEnd(time.Second)
	m.WaitBegin()
	m.WaitAbort()
	m.WorkerBegin()
	m.WorkerEnd()
	if m.InFlight() != 0 || m.Report() != nil || m.Advance(time.Now()) != nil {
		t.Error("nil monitor returned state")
	}
	if m.ObserveWindow(Window{}) != nil {
		t.Error("nil ObserveWindow returned a report")
	}
	var sb strings.Builder
	if err := m.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "solverd_self_windows_total 0") {
		t.Errorf("nil scrape missing zero families:\n%s", sb.String())
	}
}

// TestMetricsSchema lints the scrape of a warmed-up monitor and checks the
// family set matches the nil scrape exactly (stable schema from first scrape).
func TestMetricsSchema(t *testing.T) {
	res := solveTruth(t)
	m := New(Config{Workers: truthWorkers, MaxN: truthMaxN})
	for _, n := range []int{1, 2, 4, 8} {
		w := truthWindow(res, n)
		for i := 0; i < m.Config().Estimate.MinSamples; i++ {
			m.ObserveWindow(w)
		}
	}
	var warm strings.Builder
	if err := m.WriteMetrics(&warm); err != nil {
		t.Fatal(err)
	}
	warmFam := promtest.ParseExposition(t, warm.String())
	promtest.LintFamilies(t, warmFam)

	var nilOut strings.Builder
	if err := (*Monitor)(nil).WriteMetrics(&nilOut); err != nil {
		t.Fatal(err)
	}
	nilFam := promtest.ParseExposition(t, nilOut.String())
	promtest.LintFamilies(t, nilFam)
	if len(warmFam) != len(nilFam) {
		t.Errorf("family count differs: warm %d vs nil %d", len(warmFam), len(nilFam))
	}
	for name := range warmFam {
		if _, ok := nilFam[name]; !ok {
			t.Errorf("family %q absent from the nil scrape", name)
		}
	}
	if v := promtest.SingleValue(t, warmFam, "solverd_self_windows_total"); v < 16 {
		t.Errorf("windows_total = %g, want >= 16", v)
	}
	if v := promtest.SingleValue(t, warmFam, "solverd_self_snapshot_version"); v < 1 {
		t.Errorf("snapshot version = %g, want >= 1", v)
	}
}

// TestSelfModelValidates pins the model shape: two stations, workers first,
// that queueing.ValidateShape accepts (solveCurve re-validates it every fit).
func TestSelfModelValidates(t *testing.T) {
	m := SelfModel(3)
	if err := m.ValidateShape(); err != nil {
		t.Fatal(err)
	}
	if len(m.Stations) != 2 || m.Stations[0].Name != WorkersStation || m.Stations[1].Kind != queueing.Delay {
		t.Fatalf("unexpected self model: %+v", m.Stations)
	}
	if m.Stations[0].Servers != 3 {
		t.Errorf("workers station has %d servers, want 3", m.Stations[0].Servers)
	}
}

// TestHooksAllocationFree pins the sampling hot path at zero allocations per
// sampled request: the exact-MVA step guard (internal/core) stays meaningful
// only if self-sampling adds no allocation around it.
func TestHooksAllocationFree(t *testing.T) {
	m := New(Config{Workers: 2})
	allocs := testing.AllocsPerRun(200, func() {
		m.RequestBegin()
		m.WaitBegin()
		m.WorkerBegin()
		m.WorkerEnd()
		m.RequestEnd(25 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("sampling hooks allocate %.2f objects/request, want 0", allocs)
	}
}

// TestExactStepZeroAllocWithSampling re-runs the repo's exact-MVA step alloc
// guard with the self-model hooks bracketing every step, as the server's
// worker pool does in production: the combination must still be 0 allocs/op.
func TestExactStepZeroAllocWithSampling(t *testing.T) {
	model := &queueing.Model{
		Name:      "alloc-guard",
		ThinkTime: 0.1,
		Stations: []queueing.Station{
			{Name: "web/cpu", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.002},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 2, ServiceTime: 0.0004},
		},
	}
	sol, err := core.NewExactMVASolver(model)
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Release()
	m := New(Config{Workers: 2})
	const runs = 200
	sol.Reserve(runs + 2)
	n := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m.RequestBegin()
		m.WaitBegin()
		m.WorkerBegin()
		n++
		if err := sol.Extend(n); err != nil {
			t.Fatal(err)
		}
		m.WorkerEnd()
		m.RequestEnd(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("exact-MVA step with self-sampling allocates %.2f objects/op, want 0", allocs)
	}
}

// TestBreachTriggersRefit feeds windows consistent with one regime, then
// flips the ground truth: the deviation breach must bump the refit counter
// and eventually re-converge the prediction to the new regime.
func TestBreachTriggersRefit(t *testing.T) {
	res := solveTruth(t)
	m := New(Config{Workers: truthWorkers, MaxN: truthMaxN})
	for _, n := range []int{1, 2, 3, 4, 8} {
		w := truthWindow(res, n)
		for i := 0; i < m.Config().Estimate.MinSamples; i++ {
			m.ObserveWindow(w)
		}
	}
	rep := m.Report()
	if rep == nil || !rep.Ready || rep.Refits != 0 {
		t.Fatalf("unexpected warm-up state: %+v", rep)
	}
	// New regime: demands doubled. Throughput halves at saturation — far
	// outside the 3% bound, so the first scored window must breach.
	slow := Window{
		Elapsed:         time.Second,
		Completions:     res.X[7] / 2,
		BusySeconds:     res.X[7] / 2 * 2 * truthDW,
		StationSeconds:  res.X[7] / 2 * 2 * res.ResidenceRow(7)[0],
		InFlightSeconds: 8,
		Latencies:       []time.Duration{time.Duration(2 * res.Cycle[7] * float64(time.Second))},
	}
	rep = m.ObserveWindow(slow)
	if rep.Refits == 0 {
		t.Fatalf("breach did not trigger a refit: %+v", rep.Deviations)
	}
	breached := false
	for _, d := range rep.Deviations {
		if d.Breached {
			breached = true
		}
	}
	if !breached {
		t.Errorf("no deviation marked breached: %+v", rep.Deviations)
	}
}
