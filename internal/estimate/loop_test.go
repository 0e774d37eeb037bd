package estimate

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

// TestClosedLoopDriftRecovery is the acceptance test for the closed loop:
// programmed demand drift pushes the MVASD throughput deviation past the
// paper's 3% bound, the breach triggers re-estimation (and the invalidation
// hook), and post-refit predictions return under the bound.
//
// Everything is deterministic: samples are synthesized exactly from the
// Service Demand Law against a linear truth, which the Chebyshev/PCHIP fit
// reproduces float-for-float, so pre-drift deviations are ~0, the drifted
// deviation is a computable ~25%, and post-refit deviations are ~0 again.
func TestClosedLoopDriftRecovery(t *testing.T) {
	m := estModel()
	// Alpha 1 snaps each cell to its latest accepted sample: after drift, one
	// accepted sample per cell re-centres the estimate exactly.
	e, err := New(m, Config{Alpha: 1, MinSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(e, NewDeviationTracker(nil))
	var hookOld, hookNew []uint64
	ctl.OnRefit = func(oldV, newV uint64) {
		hookOld = append(hookOld, oldV)
		hookNew = append(hookNew, newV)
	}

	// No snapshot yet: the loop reports not-ready rather than guessing.
	if _, err := ctl.ObserveSystem(10, 5, 0); !errors.Is(err, ErrNotReady) {
		t.Fatalf("ObserveSystem before first fit: %v, want ErrNotReady", err)
	}

	// Phase 1: steady state. Stream the v1 truth and fit.
	truth1 := truthDemands(1)
	feedTruth(t, e, m, truth1, fitConcurrencies, 4)
	if _, _, err := ctl.Refit(); err != nil {
		t.Fatalf("initial fit: %v", err)
	}
	ref1, err := core.MVASD(m, 20, truth1, core.MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 10, 15} {
		x, _, cyc, _ := ref1.At(n)
		res, err := ctl.ObserveSystem(n, x, cyc)
		if err != nil {
			t.Fatalf("steady-state check at n=%d: %v", n, err)
		}
		if res.ThroughputBreach || res.CycleBreach || res.Reestimated {
			t.Fatalf("steady state breached at n=%d: %+v", n, res)
		}
		if res.ThroughputDeviation > 1e-9 || res.CycleDeviation > 1e-9 {
			t.Fatalf("steady-state deviation at n=%d: X %g, cycle %g",
				n, res.ThroughputDeviation, res.CycleDeviation)
		}
	}

	// Phase 2: programmed drift — every demand grows 25%. At n=15 the db
	// tier saturates, so measured throughput falls far more than 3% below
	// the stale prediction.
	truth2 := truthDemands(1.25)
	feedTruth(t, e, m, truth2, fitConcurrencies, 4)
	ref2, err := core.MVASD(m, 20, truth2, core.MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x2, _, cyc2, _ := ref2.At(15)
	res, err := ctl.ObserveSystem(15, x2, cyc2)
	if err != nil {
		t.Fatalf("drifted check: %v", err)
	}
	if !res.ThroughputBreach {
		t.Fatalf("drift did not breach the 3%% throughput bound: %+v", res)
	}
	if res.ThroughputDeviation <= ThroughputDeviationBound {
		t.Fatalf("drifted deviation %g not past the bound", res.ThroughputDeviation)
	}
	if !res.Reestimated || res.RefitError != "" {
		t.Fatalf("breach did not trigger a successful re-fit: %+v", res)
	}
	if res.OldVersion != 1 || res.Version != 2 {
		t.Fatalf("versions: %d -> %d, want 1 -> 2", res.OldVersion, res.Version)
	}
	// The hook fired for the manual initial fit (0 -> 1) and for the
	// breach-triggered re-fit (1 -> 2).
	if len(hookOld) != 2 || hookOld[1] != 1 || hookNew[1] != 2 {
		t.Fatalf("invalidation hook calls: old=%v new=%v", hookOld, hookNew)
	}
	if len(ctl.Tracker().Violations()) == 0 {
		t.Error("breach not force-recorded as a deviation event")
	}

	// Phase 3: recovered. The refitted snapshot matches the drifted truth,
	// so predictions are back within the bound (and in fact exact).
	for _, n := range []int{5, 10, 15, 18} {
		x, _, cyc, _ := ref2.At(n)
		res, err := ctl.ObserveSystem(n, x, cyc)
		if err != nil {
			t.Fatalf("post-refit check at n=%d: %v", n, err)
		}
		if res.ThroughputBreach || res.CycleBreach || res.Reestimated {
			t.Fatalf("post-refit breach at n=%d: %+v", n, res)
		}
		if res.ThroughputDeviation > 1e-9 || res.CycleDeviation > 1e-9 {
			t.Fatalf("post-refit deviation at n=%d: X %g, cycle %g",
				n, res.ThroughputDeviation, res.CycleDeviation)
		}
	}

	trig := ctl.Triggers()
	if trig["throughput"] != 1 || trig["manual"] != 1 || trig["cycle_time"] != 0 {
		t.Errorf("triggers = %v", trig)
	}
	if e.Fits() != 2 {
		t.Errorf("fits = %d, want 2", e.Fits())
	}
}

// TestControllerPredictMatchesOfflineSolve pins the float-for-float
// contract: the controller's prediction path (resumable solver over the
// snapshot's demand model) is bit-identical to a from-scratch offline
// core.MVASD on the same snapshot.
func TestControllerPredictMatchesOfflineSolve(t *testing.T) {
	m := estModel()
	e, err := New(m, Config{Alpha: 1, MinSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	feedTruth(t, e, m, truthDemands(1), fitConcurrencies, 4)
	snap, err := e.Fit()
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(e, nil)
	dm, err := snap.DemandModel()
	if err != nil {
		t.Fatal(err)
	}
	offline, err := core.MVASD(snap.Model, 20, dm, core.MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order queries exercise the resumable solver's extend path.
	for _, n := range []int{7, 3, 20, 12} {
		x, cyc, err := ctl.Predict(n)
		if err != nil {
			t.Fatalf("Predict(%d): %v", n, err)
		}
		wx, _, wc, _ := offline.At(n)
		if x != wx || cyc != wc {
			t.Errorf("Predict(%d) = (%v, %v), offline = (%v, %v)", n, x, cyc, wx, wc)
		}
	}
}

// TestRefitErrorSurfacedNotFatal: a breach whose re-fit cannot succeed (not
// enough fresh samples) reports the error on the result but keeps the stale
// snapshot serving.
func TestRefitErrorSurfacedNotFatal(t *testing.T) {
	m := estModel()
	e, err := New(m, Config{Alpha: 1, MinSamples: 2, MinFitPoints: 4, MaxCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	feedTruth(t, e, m, truthDemands(1), fitConcurrencies, 2)
	ctl := NewController(e, nil)
	if _, _, err := ctl.Refit(); err != nil {
		t.Fatal(err)
	}
	// Evict the fit-ready cells (single-sample churn), then present a
	// wildly-off measurement.
	for n := 100; n < 140; n++ {
		for k := 0; k < 3; k++ {
			if _, err := e.Observe(Sample{Station: k, Concurrency: n, Utilization: 0.5, Throughput: 5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	predX, _, err := ctl.Predict(10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctl.ObserveSystem(10, predX*2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ThroughputBreach || res.Reestimated || res.RefitError == "" {
		t.Fatalf("want breach with surfaced refit error: %+v", res)
	}
	if e.Version() != 1 {
		t.Errorf("failed refit moved the version to %d", e.Version())
	}
	if got := ctl.Triggers()["throughput"]; got != 1 {
		t.Errorf("throughput triggers = %d", got)
	}
	if math.IsNaN(res.ThroughputDeviation) {
		t.Error("deviation is NaN")
	}
}
