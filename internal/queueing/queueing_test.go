package queueing

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/numeric"
)

func validModel() *Model {
	return &Model{
		Name:      "test",
		ThinkTime: 1,
		Stations: []Station{
			{Name: "app/cpu", Kind: CPU, Servers: 16, Visits: 1, ServiceTime: 0.004},
			{Name: "db/cpu", Kind: CPU, Servers: 16, Visits: 1, ServiceTime: 0.003},
			{Name: "db/disk", Kind: Disk, Servers: 1, Visits: 1, ServiceTime: 0.010},
			{Name: "net/tx", Kind: NetTx, Servers: 1, Visits: 1, ServiceTime: 0.001},
		},
	}
}

func TestValidateAcceptsGoodModel(t *testing.T) {
	if err := validModel().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Model)
	}{
		{"no stations", func(m *Model) { m.Stations = nil }},
		{"negative think", func(m *Model) { m.ThinkTime = -1 }},
		{"unnamed station", func(m *Model) { m.Stations[0].Name = "" }},
		{"duplicate name", func(m *Model) { m.Stations[1].Name = m.Stations[0].Name }},
		{"zero servers", func(m *Model) { m.Stations[0].Servers = 0 }},
		{"negative visits", func(m *Model) { m.Stations[0].Visits = -2 }},
		{"NaN service", func(m *Model) { m.Stations[0].ServiceTime = math.NaN() }},
	}
	for _, c := range cases {
		m := validModel()
		c.mutate(m)
		if err := m.Validate(); !errors.Is(err, ErrInvalidModel) {
			t.Errorf("%s: got %v, want ErrInvalidModel", c.name, err)
		}
	}
}

// TestValidateZeroWork: a closed model with no think time and no demand has
// X = n/0; Validate rejects it with ErrNotFinite while ValidateShape, for
// models whose demands come from elsewhere, accepts it.
func TestValidateZeroWork(t *testing.T) {
	m := validModel()
	m.ThinkTime = 0
	for i := range m.Stations {
		m.Stations[i].ServiceTime = 0
	}
	if err := m.Validate(); !errors.Is(err, ErrNotFinite) || !errors.Is(err, ErrInvalidModel) {
		t.Errorf("Validate = %v, want ErrNotFinite wrapping ErrInvalidModel", err)
	}
	if err := m.ValidateShape(); err != nil {
		t.Errorf("ValidateShape = %v, want nil", err)
	}
	m.Stations[len(m.Stations)-1].ServiceTime = 1e-300 // any work at all is solvable
	if err := m.Validate(); err != nil {
		t.Errorf("Validate with a tiny demand = %v, want nil", err)
	}
}

func TestStationDemand(t *testing.T) {
	st := Station{Visits: 7, ServiceTime: 0.01}
	if got := st.Demand(); !numeric.AlmostEqual(got, 0.07, 1e-12) {
		t.Errorf("Demand = %g, want 0.07", got)
	}
}

func TestStationIndex(t *testing.T) {
	m := validModel()
	if i := m.StationIndex("db/disk"); i != 2 {
		t.Errorf("index = %d, want 2", i)
	}
	if i := m.StationIndex("nope"); i != -1 {
		t.Errorf("missing station index = %d, want -1", i)
	}
}

func TestDemandsAndTotal(t *testing.T) {
	m := validModel()
	d := m.Demands()
	want := []float64{0.004, 0.003, 0.010, 0.001}
	for i := range want {
		if !numeric.AlmostEqual(d[i], want[i], 1e-12) {
			t.Errorf("D[%d] = %g, want %g", i, d[i], want[i])
		}
	}
	if got := m.TotalDemand(); !numeric.AlmostEqual(got, 0.018, 1e-12) {
		t.Errorf("TotalDemand = %g, want 0.018", got)
	}
}

func TestMaxDemandNormalisesByServers(t *testing.T) {
	m := validModel()
	// db/disk: 0.010/1 = 0.010 dominates app/cpu 0.004/16.
	dmax, idx := m.MaxDemand()
	if idx != 2 {
		t.Errorf("bottleneck index = %d, want 2 (db/disk)", idx)
	}
	if !numeric.AlmostEqual(dmax, 0.010, 1e-12) {
		t.Errorf("dmax = %g, want 0.010", dmax)
	}
}

func TestMaxDemandSkipsDelay(t *testing.T) {
	m := &Model{Stations: []Station{
		{Name: "think", Kind: Delay, Servers: 1, Visits: 1, ServiceTime: 100},
		{Name: "cpu", Kind: CPU, Servers: 1, Visits: 1, ServiceTime: 0.01},
	}}
	dmax, idx := m.MaxDemand()
	if idx != 1 || dmax != 0.01 {
		t.Errorf("MaxDemand = (%g, %d), want (0.01, 1)", dmax, idx)
	}
}

func TestOperationalLaws(t *testing.T) {
	// Utilization Law: X=50/s, S=0.01s → U=0.5.
	if got := Utilization(50, 0.01); !numeric.AlmostEqual(got, 0.5, 1e-12) {
		t.Errorf("Utilization = %g", got)
	}
	// Forced Flow: V=3, X=10 → X_i=30.
	if got := ForcedFlow(3, 10); got != 30 {
		t.Errorf("ForcedFlow = %g", got)
	}
	// Service Demand Law: U=0.9, X=100 → D=0.009.
	if got := DemandFromUtilization(0.9, 100); !numeric.AlmostEqual(got, 0.009, 1e-12) {
		t.Errorf("DemandFromUtilization = %g", got)
	}
	if got := DemandFromUtilization(0.9, 0); got != 0 {
		t.Errorf("zero-throughput demand = %g, want 0", got)
	}
	// Little: X=100, R=0.5, Z=1 → N=150.
	if got := LittleN(100, 0.5, 1); got != 150 {
		t.Errorf("LittleN = %g", got)
	}
	if got := LittleX(150, 0.5, 1); got != 100 {
		t.Errorf("LittleX = %g", got)
	}
	if got := LittleX(10, 0, 0); got != 0 {
		t.Errorf("LittleX degenerate = %g", got)
	}
}

func TestLittleLawsAreInverse(t *testing.T) {
	for _, n := range []float64{1, 10, 500} {
		for _, r := range []float64{0.01, 0.3, 2} {
			x := LittleX(n, r, 1)
			if got := LittleN(x, r, 1); !numeric.AlmostEqual(got, n, 1e-12) {
				t.Errorf("LittleN(LittleX(%g)) = %g", n, got)
			}
		}
	}
}

func TestThroughputBound(t *testing.T) {
	if got := ThroughputBound(0.01); got != 100 {
		t.Errorf("bound = %g, want 100", got)
	}
	if got := ThroughputBound(0); !math.IsInf(got, 1) {
		t.Errorf("zero demand bound = %g, want +Inf", got)
	}
}

func TestResponseTimeLowerBound(t *testing.T) {
	// Low N: floor at ΣD. High N: asymptote N·Dmax − Z.
	if got := ResponseTimeLowerBound(1, 0.01, 0.05, 1); got != 0.05 {
		t.Errorf("low-N bound = %g, want 0.05", got)
	}
	if got := ResponseTimeLowerBound(1000, 0.01, 0.05, 1); got != 9 {
		t.Errorf("high-N bound = %g, want 9", got)
	}
}

func TestBoundsCrossover(t *testing.T) {
	m := validModel()
	b := Bounds(m, 100)
	// NStar = (ΣD+Z)/Dmax = 1.018/0.010 = 101.8
	if !numeric.AlmostEqual(b.NStar, 101.8, 1e-9) {
		t.Errorf("NStar = %g, want 101.8", b.NStar)
	}
	// Below saturation the light-load asymptote governs.
	if !numeric.AlmostEqual(b.XUpper, 100/1.018, 1e-9) {
		t.Errorf("XUpper = %g, want %g", b.XUpper, 100/1.018)
	}
	b2 := Bounds(m, 1000)
	if !numeric.AlmostEqual(b2.XUpper, 100, 1e-9) {
		t.Errorf("saturated XUpper = %g, want 100 (=1/Dmax)", b2.XUpper)
	}
	if b.XLower <= 0 || b.XLower > b.XUpper {
		t.Errorf("bounds ordering violated: [%g, %g]", b.XLower, b.XUpper)
	}
}

func TestBalancedJobBoundsBracketAsymptotic(t *testing.T) {
	m := validModel()
	for _, n := range []int{1, 10, 50, 200, 1000} {
		bb := BalancedJobBounds(m, n)
		if bb.XLower <= 0 {
			t.Errorf("n=%d: non-positive lower bound %g", n, bb.XLower)
		}
		if bb.XLower > bb.XUpper*(1+1e-9) {
			t.Errorf("n=%d: lower %g > upper %g", n, bb.XLower, bb.XUpper)
		}
		// Never above the bottleneck bound.
		if bb.XUpper > 100+1e-9 {
			t.Errorf("n=%d: upper %g exceeds 1/Dmax", n, bb.XUpper)
		}
	}
}

func TestBalancedJobBoundsDegenerate(t *testing.T) {
	m := &Model{Stations: []Station{{Name: "z", Kind: Delay, Servers: 1, Visits: 1, ServiceTime: 1}}}
	bb := BalancedJobBounds(m, 10)
	if bb.XLower != 0 || !math.IsInf(bb.XUpper, 1) {
		t.Errorf("delay-only model bounds = %+v", bb)
	}
}

func TestNetworkUtilization(t *testing.T) {
	// eq. 7: 1e5 packets of 12000 bits over 10 s on 1 Gbps → 0.12.
	got := NetworkUtilization(1e5, 12000, 10, 1e9)
	if !numeric.AlmostEqual(got, 0.12, 1e-12) {
		t.Errorf("NetworkUtilization = %g, want 0.12", got)
	}
	if NetworkUtilization(1, 1, 0, 1) != 0 {
		t.Error("zero window must yield 0")
	}
}

func TestModelString(t *testing.T) {
	s := validModel().String()
	for _, want := range []string{"db/disk", "Z=1s", "4 stations"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
