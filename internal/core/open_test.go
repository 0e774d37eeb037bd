package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/queueing"
)

func TestErlangBKnownValues(t *testing.T) {
	// Classic table values: B(1, 1) = 0.5; B(2, 1) = 1/5; B(5, 3) ≈ 0.1101.
	cases := []struct {
		c    int
		a    float64
		want float64
		tol  float64
	}{
		{1, 1, 0.5, 1e-12},
		{2, 1, 0.2, 1e-12},
		{5, 3, 0.11005, 1e-4},
		{0, 2, 1, 1e-12}, // zero servers block everything
	}
	for _, cse := range cases {
		if got := ErlangB(cse.c, cse.a); math.Abs(got-cse.want) > cse.tol {
			t.Errorf("ErlangB(%d, %g) = %.6f, want %.6f", cse.c, cse.a, got, cse.want)
		}
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1: C(1, ρ) = ρ.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, rho); math.Abs(got-rho) > 1e-12 {
			t.Errorf("ErlangC(1, %g) = %g, want %g", rho, got, rho)
		}
	}
	// Erlang's example: C(2, 1) = 1/3.
	if got := ErlangC(2, 1); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("ErlangC(2, 1) = %g, want 1/3", got)
	}
	// Saturated: probability 1.
	if got := ErlangC(2, 2.5); got != 1 {
		t.Errorf("saturated ErlangC = %g", got)
	}
}

func TestErlangPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"B negative": func() { ErlangB(-1, 1) },
		"C zero":     func() { ErlangC(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestOpenNetworkMM1(t *testing.T) {
	// Single M/M/1: W = S/(1−ρ), L = ρ/(1−ρ).
	m := &queueing.Model{
		Name: "mm1",
		Stations: []queueing.Station{
			{Name: "q", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.1},
		},
	}
	res, err := OpenNetwork(m, 5) // ρ = 0.5
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("ρ=0.5 must be stable")
	}
	if !numeric.AlmostEqual(res.ResponseTime, 0.2, 1e-12) {
		t.Errorf("W = %g, want 0.2", res.ResponseTime)
	}
	if !numeric.AlmostEqual(res.QueueLen[0], 1, 1e-12) {
		t.Errorf("L = %g, want 1", res.QueueLen[0])
	}
	if !numeric.AlmostEqual(res.Population, 1, 1e-12) {
		t.Errorf("N = %g, want 1 (Little)", res.Population)
	}
}

func TestOpenNetworkMMCAgainstFormula(t *testing.T) {
	// M/M/3 with S = 0.3, λ = 8 → a = 2.4, ρ = 0.8.
	m := &queueing.Model{
		Name: "mm3",
		Stations: []queueing.Station{
			{Name: "q", Kind: queueing.CPU, Servers: 3, Visits: 1, ServiceTime: 0.3},
		},
	}
	res, err := OpenNetwork(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	pw := ErlangC(3, 2.4)
	wantW := 0.3 + pw*0.3/(3*0.2)
	if !numeric.AlmostEqual(res.ResponseTime, wantW, 1e-12) {
		t.Errorf("W = %g, want %g", res.ResponseTime, wantW)
	}
	if !numeric.AlmostEqual(res.Util[0], 0.8, 1e-12) {
		t.Errorf("ρ = %g, want 0.8", res.Util[0])
	}
}

func TestOpenNetworkTandemAndDelay(t *testing.T) {
	// Jackson tandem: response times add; delays contribute demand only.
	m := &queueing.Model{
		Name: "tandem",
		Stations: []queueing.Station{
			{Name: "a", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.05},
			{Name: "b", Kind: queueing.Disk, Servers: 1, Visits: 2, ServiceTime: 0.02},
			{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.01},
		},
	}
	lambda := 10.0
	res, err := OpenNetwork(m, lambda)
	if err != nil {
		t.Fatal(err)
	}
	// Station a: ρ=0.5 → W=0.1. Station b: λ_b=20, ρ=0.4 → per-visit
	// 0.02/0.6=0.0333, ×2 visits = 0.0667. Delay: 0.01.
	want := 0.1 + 2*0.02/0.6 + 0.01
	if !numeric.AlmostEqual(res.ResponseTime, want, 1e-9) {
		t.Errorf("R = %g, want %g", res.ResponseTime, want)
	}
	// Little at system level.
	if !numeric.AlmostEqual(res.Population, lambda*want, 1e-9) {
		t.Errorf("N = %g, want %g", res.Population, lambda*want)
	}
}

func TestOpenNetworkInstability(t *testing.T) {
	m := &queueing.Model{
		Name: "sat",
		Stations: []queueing.Station{
			{Name: "q", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.1},
		},
	}
	res, err := OpenNetwork(m, 11) // ρ = 1.1
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Fatal("ρ=1.1 must be unstable")
	}
	if !math.IsInf(res.ResponseTime, 1) || !math.IsInf(res.Population, 1) {
		t.Errorf("unstable metrics should be +Inf: R=%g N=%g", res.ResponseTime, res.Population)
	}
	if got := SaturationRate(m); got != 10 {
		t.Errorf("saturation rate %g, want 10", got)
	}
}

func TestSaturationRateDelayOnly(t *testing.T) {
	m := &queueing.Model{
		Name: "delay-only",
		Stations: []queueing.Station{
			{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.5},
		},
	}
	if !math.IsInf(SaturationRate(m), 1) {
		t.Error("delay-only network has infinite capacity")
	}
}

func TestOpenNetworkErrors(t *testing.T) {
	m := &queueing.Model{
		Name: "err",
		Stations: []queueing.Station{
			{Name: "q", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.1},
		},
	}
	if _, err := OpenNetwork(m, -1); !errors.Is(err, ErrBadRun) {
		t.Errorf("negative lambda: %v", err)
	}
	if _, err := OpenNetwork(&queueing.Model{}, 1); err == nil {
		t.Error("invalid model should error")
	}
}
