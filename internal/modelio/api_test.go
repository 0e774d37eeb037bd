package modelio

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/queueing"
)

func apiTestModel() *queueing.Model {
	return &queueing.Model{
		Name:      "api-test",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 2, ServiceTime: 0.01},
		},
	}
}

func apiTestSamples() *SamplesFile {
	return &SamplesFile{Stations: []StationSamples{
		{Name: "app/cpu", At: []float64{1, 100, 200}, Demands: []float64{0.02, 0.018, 0.017}},
		{Name: "db/disk", At: []float64{1, 100, 200}, Demands: []float64{0.02, 0.019, 0.018}},
	}}
}

func TestSolveRequestNormalize(t *testing.T) {
	r := &SolveRequest{Model: apiTestModel(), MaxN: 10}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != AlgoMultiServer {
		t.Errorf("default algorithm = %q", r.Algorithm)
	}
	if r.Interp == "" {
		t.Error("interp not defaulted")
	}

	bad := []SolveRequest{
		{Model: apiTestModel(), MaxN: 10, Algorithm: "simplex"},
		{MaxN: 10},
		{Model: apiTestModel(), MaxN: 0},
		{Model: apiTestModel(), MaxN: 10, Algorithm: AlgoMVASD}, // no samples
		{Model: &queueing.Model{}, MaxN: 10},
	}
	for i := range bad {
		if err := bad[i].Normalize(); err == nil {
			t.Errorf("case %d: want error, got nil", i)
		}
	}

	mvasd := &SolveRequest{Model: apiTestModel(), MaxN: 10, Algorithm: AlgoMVASD, Samples: apiTestSamples()}
	if err := mvasd.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := mvasd.DemandModel(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	a := &SolveRequest{Model: apiTestModel(), MaxN: 50}
	b := &SolveRequest{Model: apiTestModel(), MaxN: 50, Algorithm: AlgoMultiServer,
		TimeoutMS: 5000, Every: 10} // spelled-out defaults + non-semantic fields
	for _, r := range []*SolveRequest{a, b} {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	ka, err := a.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("timeout/every/defaulting changed the cache key: %s vs %s", ka, kb)
	}

	// maxN is deliberately NOT key material: the cached trajectory serves
	// any population via its prefix or an in-place extension.
	c := &SolveRequest{Model: apiTestModel(), MaxN: 51}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	kc, _ := c.CacheKey()
	if kc != ka {
		t.Error("maxN changed the cache key; prefix reuse requires maxN-independent keys")
	}

	// Samples participate in the key only for sample-consuming algorithms.
	d := &SolveRequest{Model: apiTestModel(), MaxN: 50, Samples: apiTestSamples()}
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	kd, _ := d.CacheKey()
	if kd != ka {
		t.Error("unused samples changed a multiserver cache key")
	}
}

func TestDemandAxis(t *testing.T) {
	// Defaults to concurrency and builds the spline-vs-population model.
	conc := &SolveRequest{Model: apiTestModel(), MaxN: 10, Algorithm: AlgoMVASD, Samples: apiTestSamples()}
	if err := conc.Normalize(); err != nil {
		t.Fatal(err)
	}
	if conc.DemandAxis != AxisConcurrency {
		t.Errorf("DemandAxis defaulted to %q", conc.DemandAxis)
	}
	dm, err := conc.DemandModel()
	if err != nil {
		t.Fatal(err)
	}
	if dm.DependsOnThroughput() {
		t.Error("concurrency axis produced a throughput-dependent model")
	}

	// Throughput mode builds the fixed-point demand model (Fig.-20 mode)
	// and must not share a cache key with the concurrency solve.
	thr := &SolveRequest{Model: apiTestModel(), MaxN: 10, Algorithm: AlgoMVASD,
		Samples: apiTestSamples(), DemandAxis: AxisThroughput}
	if err := thr.Normalize(); err != nil {
		t.Fatal(err)
	}
	dm, err = thr.DemandModel()
	if err != nil {
		t.Fatal(err)
	}
	if !dm.DependsOnThroughput() {
		t.Error("throughput axis produced a concurrency-indexed model")
	}
	kc, _ := conc.CacheKey()
	kt, _ := thr.CacheKey()
	if kc == kt {
		t.Error("demandAxis did not change the cache key; the recursions differ")
	}

	bad := []SolveRequest{
		{Model: apiTestModel(), MaxN: 10, Algorithm: AlgoMVASD,
			Samples: apiTestSamples(), DemandAxis: "users"},
		// mvasd-1s evaluates without a throughput estimate.
		{Model: apiTestModel(), MaxN: 10, Algorithm: AlgoMVASDSingleServer,
			Samples: apiTestSamples(), DemandAxis: AxisThroughput},
		// Meaningless without samples.
		{Model: apiTestModel(), MaxN: 10, Algorithm: AlgoMultiServer,
			DemandAxis: AxisConcurrency},
	}
	for i := range bad {
		if err := bad[i].Normalize(); err == nil {
			t.Errorf("case %d: bad demandAxis accepted", i)
		}
	}
}

func TestTrajectoryDecimation(t *testing.T) {
	m := apiTestModel()
	res, err := core.ExactMVA(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrajectory(res, 3)
	wantN := []int{1, 4, 7, 10}
	if len(tr.N) != len(wantN) {
		t.Fatalf("decimated N = %v, want %v", tr.N, wantN)
	}
	for i, n := range wantN {
		if tr.N[i] != n {
			t.Fatalf("decimated N = %v, want %v", tr.N, wantN)
		}
		if tr.X[i] != res.X[n-1] || tr.R[i] != res.R[n-1] {
			t.Errorf("row %d not aligned with population %d", i, n)
		}
	}
	if len(tr.FinalUtil) != 2 || len(tr.FinalQueueLen) != 2 {
		t.Errorf("final rows missing: %v %v", tr.FinalUtil, tr.FinalQueueLen)
	}

	// every=4 does not divide 9: the last population must still appear.
	tr = NewTrajectory(res, 4)
	if tr.N[len(tr.N)-1] != 10 {
		t.Errorf("final population dropped: %v", tr.N)
	}
	// every=0 keeps everything.
	if tr = NewTrajectory(res, 0); len(tr.N) != 10 {
		t.Errorf("undecimated trajectory has %d rows", len(tr.N))
	}
}

func TestSweepExpand(t *testing.T) {
	r := &SweepRequest{
		SolveRequest: SolveRequest{Model: apiTestModel()},
		Populations:  []int{50, 100},
		ThinkTimes:   []float64{1, 2},
		Servers:      map[string][]int{"app/cpu": {2, 4, 8}},
	}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.MaxN != 100 {
		t.Errorf("MaxN = %d, want 100", r.MaxN)
	}
	points, err := r.Expand(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("grid size %d, want 6", len(points))
	}
	// Deterministic order: think times outermost, server counts as listed.
	if points[0].ThinkTime != 1 || points[0].Servers["app/cpu"] != 2 ||
		points[5].ThinkTime != 2 || points[5].Servers["app/cpu"] != 8 {
		t.Errorf("unexpected grid order: %+v", points)
	}

	if _, err := r.Expand(5); err == nil {
		t.Error("grid limit not enforced")
	}

	// Point request overrides think time and servers without touching the base.
	req := r.PointRequest(points[5])
	if req.Model.ThinkTime != 2 || req.Model.Stations[0].Servers != 8 {
		t.Errorf("point model not overridden: %+v", req.Model)
	}
	if r.Model.ThinkTime != 1 || r.Model.Stations[0].Servers != 4 {
		t.Errorf("base model mutated: %+v", r.Model)
	}

	bad := &SweepRequest{
		SolveRequest: SolveRequest{Model: apiTestModel()},
		Populations:  []int{50},
		Servers:      map[string][]int{"nope": {1}},
	}
	if err := bad.Normalize(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown sweep station accepted: %v", err)
	}
}

func TestPlanSweepGroupsByResolvedModel(t *testing.T) {
	r := &SweepRequest{
		SolveRequest: SolveRequest{Model: apiTestModel()},
		Populations:  []int{50, 100},
		ThinkTimes:   []float64{1, 2},
		// 4 and the explicit base count resolve identically: the axis has
		// only two *distinct* models per think time.
		Servers: map[string][]int{"app/cpu": {2, 4}},
	}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	points, err := r.Expand(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("grid size %d, want 4", len(points))
	}
	groups := r.PlanSweep(points)
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4 (2 thinks × 2 server counts)", len(groups))
	}
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, i := range g.Members {
			if seen[i] {
				t.Fatalf("point %d appears in two groups", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(points) {
		t.Fatalf("planner covered %d of %d points", len(seen), len(points))
	}

	// An override equal to the base model's server count collapses with the
	// no-override point, and duplicated axis values collapse too.
	dup := &SweepRequest{
		SolveRequest: SolveRequest{Model: apiTestModel()},
		Populations:  []int{10},
		Servers:      map[string][]int{"app/cpu": {4, 4, 8}},
	}
	if err := dup.Normalize(); err != nil {
		t.Fatal(err)
	}
	dupPoints, err := dup.Expand(100)
	if err != nil {
		t.Fatal(err)
	}
	dupGroups := dup.PlanSweep(dupPoints)
	if len(dupGroups) != 2 {
		t.Fatalf("duplicate axis values: %d groups, want 2", len(dupGroups))
	}
	if len(dupGroups[0].Members) != 2 {
		t.Errorf("collapsed group members = %v, want the two identical points", dupGroups[0].Members)
	}
}

func TestSweepKeyBase(t *testing.T) {
	r := &SweepRequest{
		SolveRequest: SolveRequest{Model: apiTestModel()},
		Populations:  []int{50},
		ThinkTimes:   []float64{1, 2},
		Servers:      map[string][]int{"app/cpu": {2, 4}},
	}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	kb, err := r.KeyBase()
	if err != nil {
		t.Fatal(err)
	}
	points, err := r.Expand(100)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]int)
	for i, p := range points {
		keys[kb.GroupKey(p)] = i
	}
	if len(keys) != len(points) {
		t.Fatalf("distinct points share keys: %d keys for %d points", len(keys), len(points))
	}
	// Identical resolved points produce identical keys across calls.
	if kb.GroupKey(points[0]) != kb.GroupKey(points[0]) {
		t.Error("GroupKey is not deterministic")
	}
	// An override equal to the base count keys the same as no override.
	same := GridPoint{ThinkTime: 1, Servers: map[string]int{"app/cpu": 4}}
	bare := GridPoint{ThinkTime: 1}
	if kb.GroupKey(same) != kb.GroupKey(bare) {
		t.Error("base-equal server override changed the key")
	}
	// A different base model (or algorithm) changes every key.
	other := &SweepRequest{
		SolveRequest: SolveRequest{Model: apiTestModel(), Algorithm: AlgoExact},
		Populations:  []int{50},
	}
	if err := other.Normalize(); err != nil {
		t.Fatal(err)
	}
	okb, err := other.KeyBase()
	if err != nil {
		t.Fatal(err)
	}
	if okb.GroupKey(bare) == kb.GroupKey(bare) {
		t.Error("different algorithm produced the same group key")
	}

	// A group's key depends only on its resolved model: the one-point
	// sweep a cluster gateway sends to the key's owner — PointRequest(p)
	// with the parent's populations, over the wire — keys its one point to
	// the parent's GroupKey(p), for every point of the grid, with or
	// without samples in the key material.
	mvasd := *r
	mvasd.Algorithm, mvasd.Samples, mvasd.Decimate = AlgoMVASD, apiTestSamples(), 3
	for _, parent := range []*SweepRequest{r, &mvasd} {
		pkb, err := parent.KeyBase()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			body, err := json.Marshal(&SweepRequest{SolveRequest: *parent.PointRequest(p), Populations: parent.Populations})
			if err != nil {
				t.Fatal(err)
			}
			var sub SweepRequest
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatal(err)
			}
			if err := sub.Normalize(); err != nil {
				t.Fatal(err)
			}
			subPoints, err := sub.Expand(1)
			if err != nil {
				t.Fatal(err)
			}
			skb, err := sub.KeyBase()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := skb.GroupKey(subPoints[0]), pkb.GroupKey(p); got != want {
				t.Errorf("%s point %+v: one-point sub-sweep keys to %s, parent group key %s", parent.Algorithm, p, got, want)
			}
		}
	}
}

func TestPlanRequestNormalize(t *testing.T) {
	r := &PlanRequest{Model: apiTestModel(), Users: 100,
		SLA: SLASpec{MaxCycleTime: 2, StationCaps: map[string]float64{"db/disk": 0.9}}}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	p, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Demands != nil {
		t.Error("constant-demand plan grew a demand model")
	}
	sla := r.SLA.ToSLA()
	if sla.MaxCycleTime != 2 || sla.StationCaps["db/disk"] != 0.9 {
		t.Errorf("SLA conversion lost fields: %+v", sla)
	}

	r.Samples = apiTestSamples()
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if p, err = r.Plan(); err != nil {
		t.Fatal(err)
	}
	if p.Demands == nil {
		t.Error("samples did not produce a demand model")
	}

	if err := (&PlanRequest{Model: apiTestModel(), Users: 0}).Normalize(); err == nil {
		t.Error("users=0 accepted")
	}
}
