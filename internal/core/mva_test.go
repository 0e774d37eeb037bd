package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/queueing"
)

// singleStation builds a one-queue closed model.
func singleStation(d, z float64, servers int) *queueing.Model {
	return &queueing.Model{
		Name:      "single",
		ThinkTime: z,
		Stations: []queueing.Station{
			{Name: "q", Kind: queueing.CPU, Servers: servers, Visits: 1, ServiceTime: d},
		},
	}
}

// balanced builds K identical single-server stations of demand d each.
func balanced(k int, d, z float64) *queueing.Model {
	m := &queueing.Model{Name: "balanced", ThinkTime: z}
	for i := 0; i < k; i++ {
		m.Stations = append(m.Stations, queueing.Station{
			Name: "q" + string(rune('a'+i)), Kind: queueing.CPU,
			Servers: 1, Visits: 1, ServiceTime: d,
		})
	}
	return m
}

func TestExactMVASingleQueueClosedForm(t *testing.T) {
	// One queue, Z=0: R(n) = n·D, X(n) = 1/D for all n.
	d := 0.02
	res, err := ExactMVA(singleStation(d, 0, 1), 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.N {
		if wantR := float64(n) * d; math.Abs(res.R[i]-wantR) > 1e-12 {
			t.Fatalf("R(%d) = %g, want %g", n, res.R[i], wantR)
		}
		if math.Abs(res.X[i]-1/d) > 1e-9 {
			t.Fatalf("X(%d) = %g, want %g", n, res.X[i], 1/d)
		}
	}
}

func TestExactMVABalancedClosedForm(t *testing.T) {
	// K balanced stations, Z=0: X(n) = n / (D·(K+n−1)).
	k, d := 3, 0.01
	res, err := ExactMVA(balanced(k, d, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.N {
		want := float64(n) / (d * float64(k+n-1))
		if math.Abs(res.X[i]-want) > 1e-9*want {
			t.Fatalf("X(%d) = %g, want %g", n, res.X[i], want)
		}
	}
}

func TestExactMVAInvariantsAndMonotone(t *testing.T) {
	m := &queueing.Model{
		Name:      "3tier",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "web", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.002},
			{Name: "app", Kind: queueing.CPU, Servers: 1, Visits: 2, ServiceTime: 0.003},
			{Name: "db", Kind: queueing.Disk, Servers: 1, Visits: 1.5, ServiceTime: 0.006},
		},
	}
	res, err := ExactMVA(m, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := res.CheckMonotone(); err != nil {
		t.Fatal(err)
	}
	// Bottleneck bound: X ≤ 1/Dmax with equality approached at high N.
	dmax, _ := m.MaxDemand()
	xmax, _ := res.MaxThroughput()
	if xmax > 1/dmax+1e-9 {
		t.Fatalf("X=%g exceeds bottleneck bound %g", xmax, 1/dmax)
	}
	if res.X[len(res.X)-1] < 0.98/dmax {
		t.Fatalf("X(500)=%g far from bound %g", res.X[len(res.X)-1], 1/dmax)
	}
}

func TestExactMVABottleneckBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m := &queueing.Model{Name: "rand", ThinkTime: rng.Float64() * 2}
		k := 1 + rng.Intn(6)
		for i := 0; i < k; i++ {
			m.Stations = append(m.Stations, queueing.Station{
				Name: "s" + string(rune('a'+i)), Kind: queueing.CPU, Servers: 1,
				Visits: 0.5 + 2*rng.Float64(), ServiceTime: 0.001 + 0.02*rng.Float64(),
			})
		}
		res, err := ExactMVA(m, 200)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dmax, _ := m.MaxDemand()
		for i := range res.X {
			if res.X[i] > 1/dmax*(1+1e-9) {
				t.Fatalf("trial %d: X(%d)=%g exceeds 1/Dmax=%g", trial, res.N[i], res.X[i], 1/dmax)
			}
		}
	}
}

func TestExactMVADelayStation(t *testing.T) {
	// A pure delay station adds a constant to R without queueing: with one
	// queueing station (demand D) plus a delay of demand W, R(1) = D + W.
	m := &queueing.Model{
		Name:      "delayed",
		ThinkTime: 0,
		Stations: []queueing.Station{
			{Name: "q", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.01},
			{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.05},
		},
	}
	res, err := ExactMVA(m, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.R[0], 0.06; math.Abs(got-want) > 1e-12 {
		t.Fatalf("R(1) = %g, want %g", got, want)
	}
	// The delay contributes exactly 0.05 at every population.
	for i := range res.N {
		if math.Abs(res.ResidenceRow(i)[1]-0.05) > 1e-12 {
			t.Fatalf("delay residence at n=%d: %g", res.N[i], res.ResidenceRow(i)[1])
		}
	}
}

func TestExactMVAErrors(t *testing.T) {
	if _, err := ExactMVA(singleStation(0.01, 0, 1), 0); !errors.Is(err, ErrBadRun) {
		t.Errorf("N=0: %v", err)
	}
	bad := &queueing.Model{}
	if _, err := ExactMVA(bad, 5); !errors.Is(err, queueing.ErrInvalidModel) {
		t.Errorf("invalid model: %v", err)
	}
}

func TestNormalizeServers(t *testing.T) {
	m := singleStation(0.016, 1, 16)
	nm := NormalizeServers(m)
	if nm.Stations[0].Servers != 1 {
		t.Errorf("servers = %d", nm.Stations[0].Servers)
	}
	if got := nm.Stations[0].ServiceTime; math.Abs(got-0.001) > 1e-15 {
		t.Errorf("service time = %g, want 0.001", got)
	}
	// Original untouched.
	if m.Stations[0].Servers != 16 {
		t.Error("NormalizeServers mutated its input")
	}
}

func TestSchweitzerCloseToExact(t *testing.T) {
	m := &queueing.Model{
		Name:      "mix",
		ThinkTime: 0.5,
		Stations: []queueing.Station{
			{Name: "a", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.004},
			{Name: "b", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.009},
			{Name: "c", Kind: queueing.NetTx, Servers: 1, Visits: 1, ServiceTime: 0.002},
		},
	}
	exact, err := ExactMVA(m, 300)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Schweitzer(m, 300, SchweitzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := approx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := range exact.X {
		relErr := math.Abs(approx.X[i]-exact.X[i]) / exact.X[i]
		if relErr > 0.05 {
			t.Fatalf("n=%d: Schweitzer X=%g vs exact %g (%.1f%% off)",
				exact.N[i], approx.X[i], exact.X[i], relErr*100)
		}
	}
}

func TestSchweitzerN1MatchesExact(t *testing.T) {
	// With one customer there is no queueing: both must agree exactly.
	m := balanced(4, 0.01, 1)
	exact, err := ExactMVA(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Schweitzer(m, 1, SchweitzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.X[0]-approx.X[0]) > 1e-8*exact.X[0] {
		t.Fatalf("n=1: exact %g vs schweitzer %g", exact.X[0], approx.X[0])
	}
}

func TestResultAccessors(t *testing.T) {
	res, err := ExactMVA(singleStation(0.01, 1, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	x, r, cyc, err := res.At(5)
	if err != nil {
		t.Fatal(err)
	}
	if x != res.X[4] || r != res.R[4] || cyc != res.Cycle[4] {
		t.Error("At(5) mismatch")
	}
	if _, _, _, err := res.At(0); err == nil {
		t.Error("At(0) should error")
	}
	if _, _, _, err := res.At(11); err == nil {
		t.Error("At(11) should error")
	}
	if idx := res.StationIndex("q"); idx != 0 {
		t.Errorf("StationIndex = %d", idx)
	}
	if idx := res.StationIndex("none"); idx != -1 {
		t.Errorf("missing StationIndex = %d", idx)
	}
	series := res.UtilSeries(0)
	if len(series) != 10 {
		t.Errorf("UtilSeries length %d", len(series))
	}
	fu := res.FinalUtilization()
	if len(fu) != 1 || fu[0] != series[9] {
		t.Errorf("FinalUtilization %v", fu)
	}
}
