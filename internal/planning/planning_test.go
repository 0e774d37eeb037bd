package planning

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/queueing"
	"repro/internal/testbed"
)

func simpleModel() *queueing.Model {
	return &queueing.Model{
		Name:      "plan",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.008},
		},
	}
}

func TestCheckCompliantAndViolating(t *testing.T) {
	p := &Plan{Model: simpleModel()}
	// Light load: generous SLA holds.
	v, err := p.Check(10, SLA{MaxResponseTime: 0.1, MinThroughput: 5, MaxUtilization: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("unexpected violations at N=10: %v", v)
	}
	// Deep saturation: R grows linearly, disk pegged.
	v, err = p.Check(500, SLA{MaxResponseTime: 0.1, MaxUtilization: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(v) < 2 {
		t.Fatalf("expected response-time and utilization violations, got %v", v)
	}
	found := map[string]bool{}
	for _, x := range v {
		if strings.HasPrefix(x.Clause, "utilization") {
			found["util"] = true
		}
		if x.Clause == "response time" {
			found["rt"] = true
		}
		if x.String() == "" {
			t.Error("empty violation string")
		}
	}
	if !found["util"] || !found["rt"] {
		t.Fatalf("missing expected clauses: %v", v)
	}
}

func TestStationCapsOverride(t *testing.T) {
	p := &Plan{Model: simpleModel()}
	// Global cap passes but the disk-specific cap is tighter.
	v, err := p.Check(60, SLA{
		MaxUtilization: 0.99,
		StationCaps:    map[string]float64{"db/disk": 0.30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !strings.Contains(v[0].Clause, "db/disk") {
		t.Fatalf("expected only the db/disk cap to fire: %v", v)
	}
}

func TestMaxUsersUnderSLA(t *testing.T) {
	p := &Plan{Model: simpleModel()}
	sla := SLA{MaxCycleTime: 1.2}
	nMax, err := p.MaxUsersUnderSLA(500, sla)
	if err != nil {
		t.Fatal(err)
	}
	if nMax < 1 || nMax >= 500 {
		t.Fatalf("nMax = %d, expected an interior knee", nMax)
	}
	// The SLA holds at nMax and fails at nMax+1.
	if v, _ := p.Check(nMax, sla); len(v) != 0 {
		t.Fatalf("SLA violated at reported max %d: %v", nMax, v)
	}
	if v, _ := p.Check(nMax+1, sla); len(v) == 0 {
		t.Fatalf("SLA unexpectedly holds at %d", nMax+1)
	}
	// Impossible SLA fails immediately.
	if n, err := p.MaxUsersUnderSLA(10, SLA{MaxResponseTime: 1e-9}); err != nil || n != 0 {
		t.Fatalf("impossible SLA: n=%d err=%v", n, err)
	}
	if _, err := p.MaxUsersUnderSLA(0, sla); err == nil {
		t.Error("limit 0 should error")
	}
}

func TestPlanWithVaryingDemands(t *testing.T) {
	// With decaying demands MVASD admits more users under the same SLA
	// than the constant-demand plan.
	m := simpleModel()
	samples := []core.DemandSamples{
		{At: []float64{1, 100, 300}, Demands: []float64{0.020, 0.015, 0.012}},
		{At: []float64{1, 100, 300}, Demands: []float64{0.008, 0.0065, 0.0055}},
	}
	dm, err := core.NewCurveDemands(interp.PCHIP, samples, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	constant := &Plan{Model: m}
	varying := &Plan{Model: m, Demands: dm}
	sla := SLA{MaxCycleTime: 1.5}
	nConst, err := constant.MaxUsersUnderSLA(600, sla)
	if err != nil {
		t.Fatal(err)
	}
	nVar, err := varying.MaxUsersUnderSLA(600, sla)
	if err != nil {
		t.Fatal(err)
	}
	if nVar <= nConst {
		t.Fatalf("varying demands admit %d users, constant %d — expected more", nVar, nConst)
	}
}

func TestMinServersForSLA(t *testing.T) {
	m := &queueing.Model{
		Name:      "sizing",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.05},
		},
	}
	// At N=100 a single 50 ms server saturates (X≤20); find the core count
	// that keeps cycle time under 1.3 s (X≈77 → at least 4 cores).
	c, err := MinServersForSLA(m, "cpu", 100, 32, SLA{MaxCycleTime: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if c < 4 || c > 8 {
		t.Fatalf("needed %d cores, expected 4–8", c)
	}
	// One fewer core must violate.
	m2 := *m
	m2.Stations = append([]queueing.Station(nil), m.Stations...)
	m2.Stations[0].Servers = c - 1
	p := &Plan{Model: &m2}
	if v, _ := p.Check(100, SLA{MaxCycleTime: 1.3}); len(v) == 0 {
		t.Fatalf("%d cores should violate the SLA", c-1)
	}
	// Errors.
	if _, err := MinServersForSLA(m, "nope", 10, 4, SLA{}); err == nil {
		t.Error("unknown station should error")
	}
	if _, err := MinServersForSLA(m, "cpu", 10, 0, SLA{}); err == nil {
		t.Error("maxServers 0 should error")
	}
	if _, err := MinServersForSLA(m, "cpu", 1000, 1, SLA{MaxResponseTime: 1e-9}); err == nil {
		t.Error("unreachable SLA should error")
	}
}

func TestSpeedupScenarioAndCompare(t *testing.T) {
	m := simpleModel()
	// SSD swap: disk twice as fast removes the bottleneck.
	ssd, err := SpeedupScenario(m, "db/disk", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ssd.Stations[1].ServiceTime != 0.004 {
		t.Fatalf("scaled service time %g", ssd.Stations[1].ServiceTime)
	}
	if m.Stations[1].ServiceTime != 0.008 {
		t.Fatal("SpeedupScenario mutated the baseline")
	}
	cmp, err := Compare(m, ssd, 400)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.XGain <= 0.2 {
		t.Fatalf("expected >20%% gain from the SSD swap at saturation, got %.1f%%", cmp.XGain*100)
	}
	// New bottleneck is the CPU (0.02/4 = 0.005 > 0.004).
	if cmp.Bottleneck != "app/cpu" {
		t.Fatalf("new bottleneck %q, want app/cpu", cmp.Bottleneck)
	}
	if _, err := SpeedupScenario(m, "nope", 0.5); err == nil {
		t.Error("unknown station should error")
	}
	if _, err := SpeedupScenario(m, "db/disk", 0); err == nil {
		t.Error("factor 0 should error")
	}
}

func TestPlanOnTestbedProfile(t *testing.T) {
	// End-to-end: the VINS profile with its true demand curves — what
	// concurrency keeps pages under 2 s of cycle time?
	p := testbed.VINS()
	plan := &Plan{Model: p.Model(1), Demands: p.TrueDemandModel()}
	n, err := plan.MaxUsersUnderSLA(p.MaxUsers, SLA{MaxCycleTime: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The knee sits near N* ≈ 170; 2 s of cycle time is reached somewhat
	// beyond it.
	if n < 150 || n > 400 {
		t.Fatalf("VINS 2s-SLA capacity %d, expected a few hundred users", n)
	}
}

func TestNilModel(t *testing.T) {
	p := &Plan{}
	if _, err := p.Check(1, SLA{}); err == nil {
		t.Error("nil model should error")
	}
}

// TestNonFiniteRowsRefused: demands that overflow make R = +Inf, on which no
// SLA can be judged; Check and MaxUsersUnderSLA refuse it rather than report
// a violation carrying +Inf.
func TestNonFiniteRowsRefused(t *testing.T) {
	m := simpleModel()
	for i := range m.Stations {
		m.Stations[i].ServiceTime = 1e308
	}
	p := &Plan{Model: m}
	sla := SLA{MaxResponseTime: 1}
	if _, err := p.Check(3, sla); !errors.Is(err, queueing.ErrNotFinite) {
		t.Errorf("Check: err = %v, want %v", err, queueing.ErrNotFinite)
	}
	if _, err := p.MaxUsersUnderSLA(3, sla); !errors.Is(err, queueing.ErrNotFinite) {
		t.Errorf("MaxUsersUnderSLA: err = %v, want %v", err, queueing.ErrNotFinite)
	}
}
