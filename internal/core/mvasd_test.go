package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/queueing"
)

// decayModel builds a 2-station model whose true demands decay with
// concurrency: D_k(n) = dInf + (d1−dInf)·exp(−(n−1)/tau).
func decayDemand(d1, dInf, tau float64) func(n int) float64 {
	return func(n int) float64 {
		return dInf + (d1-dInf)*math.Exp(-float64(n-1)/tau)
	}
}

func TestMVASDConstantDemandsMatchAlgorithm2(t *testing.T) {
	m := &queueing.Model{
		Name:      "const",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 16, Visits: 1, ServiceTime: 0.02},
			{Name: "disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.005},
		},
	}
	alg2, _, err := ExactMVAMultiServer(m, 500, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := MVASD(m, 500, ConstantDemands(m.Demands()), MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range alg2.X {
		if math.Abs(alg2.X[i]-sd.X[i]) > 1e-12*alg2.X[i] {
			t.Fatalf("n=%d: alg2 %g vs mvasd %g", alg2.N[i], alg2.X[i], sd.X[i])
		}
	}
}

func TestMVASDWithDecayingDemandsBeatsConstant(t *testing.T) {
	// True demands fall with n. MVASD fed the true curve predicts higher
	// max throughput than Algorithm 2 fed the n=1 demands, and the MVASD
	// curve respects the *final* (smaller) demand's bottleneck bound.
	m := &queueing.Model{
		Name:      "decay",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.008},
		},
	}
	cpu := decayDemand(0.02, 0.012, 60)
	disk := decayDemand(0.008, 0.005, 80)
	dm := FuncDemands{K: 2, F: func(k, n int) float64 {
		if k == 0 {
			return cpu(n)
		}
		return disk(n)
	}}
	sd, err := MVASD(m, 800, dm, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	const2, _, err := ExactMVAMultiServer(m, 800, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	xSD, _ := sd.MaxThroughput()
	xC, _ := const2.MaxThroughput()
	if xSD <= xC {
		t.Fatalf("MVASD max X %g should exceed constant-demand %g", xSD, xC)
	}
	// Bound from the asymptotic demands: disk is the bottleneck
	// (0.005 > 0.012/4), X ≤ 1/0.005 = 200.
	if xSD > 200*(1+1e-6) {
		t.Fatalf("MVASD X %g violates asymptotic bottleneck bound 200", xSD)
	}
	if xSD < 185 {
		t.Fatalf("MVASD X %g should approach 200", xSD)
	}
}

func TestMVASDUsesInterpolatedSamples(t *testing.T) {
	// Feed MVASD sparse samples of a known decay; its predictions must be
	// close to MVASD fed the exact function (spline error only).
	m := &queueing.Model{
		Name:      "sampled",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.01},
		},
	}
	truth := decayDemand(0.01, 0.006, 50)
	exactDM := FuncDemands{K: 1, F: func(_, n int) float64 { return truth(n) }}
	at := []float64{1, 20, 50, 100, 200, 400}
	d := make([]float64, len(at))
	for i, a := range at {
		d[i] = truth(int(a))
	}
	sampled, err := NewCurveDemands(interp.CubicNotAKnot,
		[]DemandSamples{{At: at, Demands: d}}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rExact, err := MVASD(m, 400, exactDM, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rSampled, err := MVASD(m, 400, sampled, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A classic cubic spline overshoots by up to ~4% on the sparse
	// exponential tail (the undulation the paper's Figs. 12/15 discuss), and
	// near the bottleneck X error tracks demand error one-for-one.
	for i := range rExact.X {
		rel := math.Abs(rExact.X[i]-rSampled.X[i]) / rExact.X[i]
		if rel > 0.05 {
			t.Fatalf("n=%d: spline-sampled MVASD off by %.2f%%", rExact.N[i], rel*100)
		}
	}
	// The monotone PCHIP interpolant cannot overshoot and must track the
	// truth much more tightly on monotone demand data.
	pchip, err := NewCurveDemands(interp.PCHIP,
		[]DemandSamples{{At: at, Demands: d}}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rPCHIP, err := MVASD(m, 400, pchip, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rExact.X {
		rel := math.Abs(rExact.X[i]-rPCHIP.X[i]) / rExact.X[i]
		if rel > 0.01 {
			t.Fatalf("n=%d: PCHIP-sampled MVASD off by %.2f%%", rExact.N[i], rel*100)
		}
	}
}

func TestMVASDConstantExtrapolationBeyondSamples(t *testing.T) {
	// Beyond the last sample the demand must peg (eq. 14), so the solution
	// beyond that point matches a constant-demand run started from the same
	// state. We verify the demands recorded in the result are pegged.
	m := &queueing.Model{
		Name:      "peg",
		ThinkTime: 0.5,
		Stations: []queueing.Station{
			{Name: "q", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.01},
		},
	}
	cd, err := NewCurveDemands(interp.CubicNotAKnot,
		[]DemandSamples{{At: []float64{1, 50, 100}, Demands: []float64{0.01, 0.008, 0.007}}},
		interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MVASD(m, 300, cd, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 101; n <= 300; n++ {
		if got := res.DemandsRow(n - 1)[0]; got != 0.007 {
			t.Fatalf("demand at n=%d is %g, want pegged 0.007", n, got)
		}
	}
}

func TestMVASDSingleServerUnderestimatesMultiCore(t *testing.T) {
	// CPU-bound model: the single-server normalisation must predict
	// different (the paper shows worse) values than the multi-server model;
	// at low N the single-server variant underestimates response time
	// (D/C instead of D when no queueing) hence overestimates X.
	m := &queueing.Model{
		Name:      "cpuheavy",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 16, Visits: 1, ServiceTime: 0.08},
		},
	}
	dm := ConstantDemands{0.08}
	multi, err := MVASD(m, 300, dm, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := MVASDSingleServer(m, 300, dm, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// n=1: multi gives R=0.08, single gives R=0.005.
	if math.Abs(multi.R[0]-0.08) > 1e-12 {
		t.Fatalf("multi R(1) = %g, want 0.08", multi.R[0])
	}
	if math.Abs(single.R[0]-0.005) > 1e-12 {
		t.Fatalf("single R(1) = %g, want 0.005", single.R[0])
	}
	if single.X[0] <= multi.X[0] {
		t.Fatal("single-server normalisation should overestimate X at n=1")
	}
	// Both saturate at the same bound C/D = 200.
	if math.Abs(multi.X[299]-single.X[299]) > 5 {
		t.Fatalf("saturation mismatch: multi %g vs single %g", multi.X[299], single.X[299])
	}
}

func TestMVASDThroughputModeFlatCurveMatchesConstant(t *testing.T) {
	// A demand-vs-throughput model with a flat curve is equivalent to
	// constant demands; the fixed point must converge to the same result.
	m := &queueing.Model{
		Name:      "flat-x",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "q", Kind: queueing.CPU, Servers: 2, Visits: 1, ServiceTime: 0.01},
		},
	}
	td, err := NewThroughputDemands(interp.Linear,
		[]DemandSamples{{At: []float64{0, 1000}, Demands: []float64{0.01, 0.01}}},
		interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaX, err := MVASD(m, 200, td, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaC, err := MVASD(m, 200, ConstantDemands{0.01}, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaX.X {
		if math.Abs(viaX.X[i]-viaC.X[i]) > 1e-6*viaC.X[i] {
			t.Fatalf("n=%d: via-X %g vs constant %g", viaX.N[i], viaX.X[i], viaC.X[i])
		}
	}
	if viaX.Algorithm != "mvasd-vs-throughput" {
		t.Errorf("algorithm label %q", viaX.Algorithm)
	}
}

func TestMVASDThroughputModeDecayingCurve(t *testing.T) {
	// Demands that fall with throughput (caching kicks in at high rates):
	// the fixed point must converge and respect Little's law everywhere.
	m := &queueing.Model{
		Name:      "x-decay",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.006},
		},
	}
	td, err := NewThroughputDemands(interp.CubicNotAKnot,
		[]DemandSamples{
			{At: []float64{1, 50, 100, 150}, Demands: []float64{0.020, 0.016, 0.013, 0.012}},
			{At: []float64{1, 50, 100, 150}, Demands: []float64{0.006, 0.0055, 0.0052, 0.0050}},
		}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MVASD(m, 400, td, MVASDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Saturation bound with the smallest demands: disk 0.005 → X ≤ 200.
	if last := res.X[len(res.X)-1]; last > 200*(1+1e-6) || last < 150 {
		t.Fatalf("throughput-mode saturation X = %g", last)
	}
}

func TestMVASDErrors(t *testing.T) {
	m := singleStation(0.01, 1, 1)
	if _, err := MVASD(m, 10, nil, MVASDOptions{}); !errors.Is(err, ErrBadRun) {
		t.Errorf("nil demand model: %v", err)
	}
	if _, err := MVASD(m, 10, ConstantDemands{0.01, 0.02}, MVASDOptions{}); !errors.Is(err, ErrBadRun) {
		t.Errorf("station mismatch: %v", err)
	}
	if _, err := MVASDSingleServer(m, 10, nil, MVASDOptions{}); !errors.Is(err, ErrBadRun) {
		t.Errorf("single-server nil demand model: %v", err)
	}
	if _, err := MVASDSingleServer(m, 10, ConstantDemands{1, 2}, MVASDOptions{}); !errors.Is(err, ErrBadRun) {
		t.Errorf("single-server mismatch: %v", err)
	}
	if _, err := MVASD(m, 0, ConstantDemands{0.01}, MVASDOptions{}); !errors.Is(err, ErrBadRun) {
		t.Errorf("N=0: %v", err)
	}
}

func TestDemandModelConstructors(t *testing.T) {
	if _, err := NewCurveDemands(interp.Linear, nil, interp.Options{}); !errors.Is(err, ErrDemandModel) {
		t.Errorf("empty samples: %v", err)
	}
	bad := []DemandSamples{{At: []float64{1, 2}, Demands: []float64{1}}}
	if _, err := NewCurveDemands(interp.Linear, bad, interp.Options{}); !errors.Is(err, ErrDemandModel) {
		t.Errorf("ragged samples: %v", err)
	}
	if _, err := NewThroughputDemands(interp.Linear, bad, interp.Options{}); !errors.Is(err, ErrDemandModel) {
		t.Errorf("throughput ragged: %v", err)
	}
	good := []DemandSamples{{At: []float64{1, 100}, Demands: []float64{0.01, 0.008}}}
	cd, err := NewCurveDemands(interp.Linear, good, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cd.Stations() != 1 || cd.DependsOnThroughput() {
		t.Error("CurveDemands metadata wrong")
	}
	if cd.Curve(0) == nil {
		t.Error("Curve accessor nil")
	}
	td, err := NewThroughputDemands(interp.Linear, good, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !td.DependsOnThroughput() || td.Stations() != 1 || td.Curve(0) == nil {
		t.Error("ThroughputDemands metadata wrong")
	}
	// Single-sample constant curve.
	one := []DemandSamples{{At: []float64{10}, Demands: []float64{0.02}}}
	c1, err := NewCurveDemands(interp.CubicNotAKnot, one, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.DemandAt(0, 999, 0); got != 0.02 {
		t.Errorf("constant curve demand = %g", got)
	}
}
