package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/queueing"
)

func TestMultiServerReducesToSingleServer(t *testing.T) {
	// With every C_k = 1, Algorithm 2 must equal Algorithm 1 exactly (the
	// paper notes eq. 10 reduces to eq. 8).
	m := &queueing.Model{
		Name:      "all-single",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "a", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.005},
			{Name: "b", Kind: queueing.Disk, Servers: 1, Visits: 2, ServiceTime: 0.004},
		},
	}
	exact, err := ExactMVA(m, 200)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := ExactMVAMultiServer(m, 200, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.X {
		if math.Abs(exact.X[i]-ms.X[i]) > 1e-12*exact.X[i] {
			t.Fatalf("n=%d: single %g vs multi %g", exact.N[i], exact.X[i], ms.X[i])
		}
		if math.Abs(exact.R[i]-ms.R[i]) > 1e-12*math.Max(exact.R[i], 1e-12) {
			t.Fatalf("n=%d: R single %g vs multi %g", exact.N[i], exact.R[i], ms.R[i])
		}
	}
}

func TestMultiServerN1NoQueueing(t *testing.T) {
	// With one customer, a C-server station behaves like a delay of D:
	// R(1) = D regardless of C.
	for _, c := range []int{1, 2, 4, 16} {
		m := singleStation(0.01, 0.5, c)
		res, _, err := ExactMVAMultiServer(m, 1, MultiServerOptions{TraceStation: -1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.R[0]-0.01) > 1e-12 {
			t.Fatalf("C=%d: R(1) = %g, want 0.01", c, res.R[0])
		}
	}
}

func TestMultiServerBeatsSingleServerModel(t *testing.T) {
	// A 4-core CPU must deliver higher modelled throughput than the same
	// station treated as one server with the raw service time, and lower
	// response times than queueing all jobs behind one core.
	m := singleStation(0.02, 1, 4)
	multi, _, err := ExactMVAMultiServer(m, 300, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	single, err := ExactMVA(m, 300) // ignores servers: pessimistic
	if err != nil {
		t.Fatal(err)
	}
	if multi.X[299] <= single.X[299] {
		t.Fatalf("multi-server X=%g should beat single-server %g", multi.X[299], single.X[299])
	}
	// Saturation: X → C/D = 200.
	if multi.X[299] < 190 || multi.X[299] > 200.0001 {
		t.Fatalf("multi-server saturation X=%g, want ≈200", multi.X[299])
	}
}

func TestMultiServerRespectsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		m := &queueing.Model{Name: "rand-ms", ThinkTime: rng.Float64()}
		k := 1 + rng.Intn(5)
		for i := 0; i < k; i++ {
			m.Stations = append(m.Stations, queueing.Station{
				Name: "s" + string(rune('a'+i)), Kind: queueing.CPU,
				Servers: 1 + rng.Intn(16),
				Visits:  0.5 + rng.Float64(), ServiceTime: 0.002 + 0.02*rng.Float64(),
			})
		}
		res, _, err := ExactMVAMultiServer(m, 400, MultiServerOptions{TraceStation: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dmax, _ := m.MaxDemand() // already normalised by servers
		for i := range res.X {
			if res.X[i] > (1/dmax)*(1+1e-6) {
				t.Fatalf("trial %d n=%d: X=%g exceeds C/D bound %g", trial, res.N[i], res.X[i], 1/dmax)
			}
		}
	}
}

func TestMultiServerVsLoadDependentExact(t *testing.T) {
	// Algorithm 2 approximates the exact load-dependent MVA; for a
	// moderately loaded multi-server network the two should agree within a
	// few percent (and exactly at n=1).
	m := &queueing.Model{
		Name:      "ms-vs-ld",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 8, Visits: 1, ServiceTime: 0.02},
			{Name: "disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.004},
		},
	}
	alg2, _, err := ExactMVAMultiServer(m, 1000, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := LoadDependentMVA(m, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alg2.X[0]-ld.X[0]) > 1e-9*ld.X[0] {
		t.Fatalf("n=1 mismatch: alg2 %g vs exact %g", alg2.X[0], ld.X[0])
	}
	worst, sum := 0.0, 0.0
	for i := range alg2.X {
		rel := math.Abs(alg2.X[i]-ld.X[i]) / ld.X[i]
		worst = math.Max(worst, rel)
		sum += rel
	}
	// The Suri correction is approximate at the knee; the literature
	// reports single-digit-percent worst cases there. Mean error must stay
	// small and the saturated tail must agree closely.
	if worst > 0.08 {
		t.Fatalf("Algorithm 2 worst deviation %.2f%% from exact load-dependent MVA", worst*100)
	}
	if mean := sum / float64(len(alg2.X)); mean > 0.02 {
		t.Fatalf("Algorithm 2 mean deviation %.2f%% from exact load-dependent MVA", mean*100)
	}
	tail := len(alg2.X) - 1
	if rel := math.Abs(alg2.X[tail]-ld.X[tail]) / ld.X[tail]; rel > 0.01 {
		t.Fatalf("saturated tail deviates %.2f%%", rel*100)
	}
}

func TestMarginalProbabilitiesTrace(t *testing.T) {
	// Fig. 3 setup: a 4-core CPU station; the marginal probabilities must
	// be valid probabilities and converge as concurrency grows.
	m := singleStation(0.02, 1, 4)
	_, trace, err := ExactMVAMultiServer(m, 300, MultiServerOptions{TraceStation: 0})
	if err != nil {
		t.Fatal(err)
	}
	if trace == nil || trace.Servers != 4 || len(trace.P) != 300 {
		t.Fatalf("bad trace: %+v", trace)
	}
	for n, row := range trace.P {
		if len(row) != 4 {
			t.Fatalf("n=%d: %d probabilities", n+1, len(row))
		}
		for j, p := range row {
			if p < -1e-9 || p > 1+1e-9 {
				t.Fatalf("n=%d: p(%d) = %g outside [0,1]", n+1, j+1, p)
			}
		}
	}
	// Convergence: the last two rows nearly identical.
	for j := range trace.P[299] {
		if math.Abs(trace.P[299][j]-trace.P[298][j]) > 1e-6 {
			t.Fatalf("probabilities not converged at n=300: %v vs %v", trace.P[299], trace.P[298])
		}
	}
}

func TestMultiServerVerbatimMode(t *testing.T) {
	// Verbatim mode reproduces the unclamped recursion; it must agree with
	// the default mode while the station is underloaded.
	m := &queueing.Model{
		Name:      "light",
		ThinkTime: 5,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.01},
		},
	}
	def, _, err := ExactMVAMultiServer(m, 50, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	verb, _, err := ExactMVAMultiServer(m, 50, MultiServerOptions{Verbatim: true, TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.X {
		// The two variants use different update orderings, so only
		// near-agreement is expected even far from saturation.
		if math.Abs(def.X[i]-verb.X[i]) > 1e-3*def.X[i] {
			t.Fatalf("n=%d: default %g vs verbatim %g under light load", def.N[i], def.X[i], verb.X[i])
		}
	}
}

func TestLoadDependentReducesToExactMVA(t *testing.T) {
	m := &queueing.Model{
		Name:      "ld-single",
		ThinkTime: 0.3,
		Stations: []queueing.Station{
			{Name: "a", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.006},
			{Name: "b", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.011},
		},
	}
	exact, err := ExactMVA(m, 150)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := LoadDependentMVA(m, 150, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.X {
		if math.Abs(exact.X[i]-ld.X[i]) > 1e-9*exact.X[i] {
			t.Fatalf("n=%d: exact %g vs LD %g", exact.N[i], exact.X[i], ld.X[i])
		}
	}
}

func TestLoadDependentRespectsMultiServerBound(t *testing.T) {
	m := singleStation(0.02, 0.1, 4) // bound C/D = 200
	ld, err := LoadDependentMVA(m, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	last := ld.X[len(ld.X)-1]
	if last > 200*(1+1e-9) {
		t.Fatalf("X=%g exceeds 200", last)
	}
	if last < 195 {
		t.Fatalf("X=%g should approach 200", last)
	}
}

func TestLoadDependentCustomRate(t *testing.T) {
	// A rate that doubles service speed for j >= 2 (batching effect):
	// faster than single-server, slower than a true 2-server... actually
	// equals the 2-server rate for j >= 2 and rate 1 at j = 1 — exactly
	// MultiServerRate(2). Cross-check the two spellings.
	m := singleStation(0.01, 0.2, 2)
	viaServers, err := LoadDependentMVA(m, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	custom := []RateFunc{func(j int) float64 {
		if j >= 2 {
			return 2
		}
		return 1
	}}
	viaCustom, err := LoadDependentMVA(m, 100, custom)
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaServers.X {
		if math.Abs(viaServers.X[i]-viaCustom.X[i]) > 1e-12*viaServers.X[i] {
			t.Fatalf("n=%d: %g vs %g", viaServers.N[i], viaServers.X[i], viaCustom.X[i])
		}
	}
}

func TestLoadDependentErrors(t *testing.T) {
	m := singleStation(0.01, 0, 1)
	if _, err := LoadDependentMVA(m, 10, []RateFunc{nil, nil}); err == nil {
		t.Error("mismatched rate count should error")
	}
	bad := []RateFunc{func(int) float64 { return 0 }}
	if _, err := LoadDependentMVA(m, 10, bad); err == nil {
		t.Error("zero rate should error")
	}
}

func TestSingleServerRate(t *testing.T) {
	r := SingleServerRate()
	for j := 1; j < 5; j++ {
		if r(j) != 1 {
			t.Errorf("rate(%d) = %g", j, r(j))
		}
	}
}

// referenceClosedForm is the closed-form update written out independently of
// the memo: the Suri–Sahu–Vernon marginals for a C-server station at
// utilization u (zero from saturation on), then F_k summed over P_k in
// ascending order.
func referenceClosedForm(u float64, servers int) ([]float64, float64) {
	c := float64(servers)
	p := make([]float64, servers)
	if u < c || u != u {
		wsum, term := 0.0, 1.0
		for j := 1; j < servers; j++ {
			term *= u / float64(j)
			p[j] = term
			wsum += (c - float64(j)) * term
		}
		p0 := (1 - u/c) / (1 + wsum/c)
		p[0] = p0
		for j := 1; j < servers; j++ {
			p[j] *= p0
		}
	}
	f := 0.0
	for j, pj := range p {
		f += (c - 1 - float64(j)) * pj
	}
	return p, f
}

// stepAt runs one multiServerStep in which station k is keyed by
// utilization x·u[k]. With no residence demand (perServer zero), population
// 1 and think time 1 the step's throughput x is exactly 1 while every F_k
// is finite, so u[k] reaches the memo unchanged; stepAt returns x.
func stepAt(m *queueing.Model, st *multiServerState, u []float64) float64 {
	if m.ThinkTime != 1 {
		panic("stepAt needs think time 1")
	}
	zero, resid := make([]float64, len(u)), make([]float64, len(u))
	x, _ := multiServerStep(m, st, u, zero, 1, false, resid)
	return x
}

// TestClosedFormMemoBitIdentical drives each multi-server station's memo
// through multiServerStep with utilization sequences that repeat, alternate
// among 2–5 values and jump to ±0, subnormals, NaN and saturated values,
// moving the state through copyFrom (the MVASD trial double-buffer) and
// restore (checkpoint resume) on the way, and checks every P_k and F_k
// against a fresh closed form, bit for bit. P_k is read right after the
// step, while a memo hit or miss still holds it in the way, through
// materialize, a copyFrom or a stepper checkpoint in turn.
func TestClosedFormMemoBitIdentical(t *testing.T) {
	m := &queueing.Model{Name: "memo", ThinkTime: 1, Stations: []queueing.Station{
		{Name: "cpu16", Kind: queueing.CPU, Servers: 16, Visits: 1, ServiceTime: 0.01},
		{Name: "disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.01},
		{Name: "cpu2", Kind: queueing.CPU, Servers: 2, Visits: 1, ServiceTime: 0.01},
		{Name: "lan", Kind: queueing.Delay, Servers: 3, Visits: 1, ServiceTime: 0.01},
		{Name: "cpu5", Kind: queueing.CPU, Servers: 5, Visits: 1, ServiceTime: 0.01},
	}}
	multi := []int{0, 2, 4}
	rng := rand.New(rand.NewSource(16))
	special := func(c float64) float64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 3:
			return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // any subnormal
		case 4:
			return c
		case 5:
			return math.Nextafter(c, 0)
		case 6:
			return c * (1 + rng.Float64())
		case 7:
			return math.Inf(1)
		case 8:
			return math.NaN()
		}
		return c * (1 - 1e-12*rng.Float64())
	}
	// clean is a checkpoint every state can resume from: empty queues and
	// every station's marginals [1, 0, …].
	clean := &Checkpoint{Queue: make([]float64, len(m.Stations))}
	for _, s := range m.Stations {
		p := make([]float64, s.Servers)
		p[0] = 1
		clean.Marginal = append(clean.Marginal, p)
	}
	st, twin := newMultiServerState(m), newMultiServerState(m)
	defer func() { st.release(); twin.release() }()
	u := make([]float64, len(m.Stations))
	var cycle []float64 // the values an alternation run cycles through
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(100); {
		case r < 3:
			// Trial double-buffer: the twin takes the state and the next
			// steps, as mvasdStepper swaps st and trial on convergence.
			twin.copyFrom(st)
			st, twin = twin, st
		case r < 4:
			// A fresh state (empty memo ways) takes over mid-run.
			twin.release()
			twin = newMultiServerState(m)
			twin.copyFrom(st)
			st, twin = twin, st
		case r < 6:
			st.materialize()
			cp := &Checkpoint{Queue: append([]float64(nil), st.queue...), Marginal: cloneVecs(st.p)}
			if err := twin.restore(cp); err != nil {
				t.Fatal(err)
			}
			st, twin = twin, st
		}
		if step%40 == 0 {
			cycle = cycle[:0]
			for i, n := 0, 2+rng.Intn(4); i < n; i++ {
				cycle = append(cycle, rng.Float64())
			}
		}
		for _, k := range multi {
			c := float64(m.Stations[k].Servers)
			switch r := rng.Intn(10); {
			case step < 8:
				u[k] = special(c) // an empty memo meets the edge cases first
			case r < 5:
				u[k] = c * cycle[step%len(cycle)]
			case r < 7:
				u[k] = st.u[k] // a repeat of the key p[k] holds
			case r < 9:
				u[k] = special(c)
			default:
				u[k] = c * rng.Float64()
			}
		}
		if x := stepAt(m, st, u); x != 1 {
			t.Fatalf("step %d: throughput %v, want 1", step, x)
		}
		var got [][]float64
		switch step % 3 {
		case 0:
			st.materialize()
			got = st.p
		case 1:
			twin.copyFrom(st)
			got = twin.p
		default:
			cp := &Checkpoint{}
			(&multiServerStepper{st: st}).checkpoint(cp)
			got = cp.Marginal
		}
		nan := false
		for _, k := range multi {
			wantP, wantF := referenceClosedForm(u[k], m.Stations[k].Servers)
			for j := range wantP {
				if math.Float64bits(got[k][j]) != math.Float64bits(wantP[j]) {
					t.Fatalf("step %d station %d u=%v: P(%d) = %v, want %v", step, k, u[k], j, got[k][j], wantP[j])
				}
			}
			if math.Float64bits(st.f[k]) != math.Float64bits(wantF) {
				t.Fatalf("step %d station %d u=%v: F = %v, want %v", step, k, u[k], st.f[k], wantF)
			}
			nan = nan || wantF != wantF
		}
		if nan {
			// A NaN F_k makes every later throughput NaN, as in a solve;
			// resume from a clean checkpoint (the memo stays) to go on.
			if err := st.restore(clean); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMemoWayHeldAcrossSteps pins the lazy marginals: after a memo hit, a
// step at the same utilization touches nothing, so P_k is still in the way
// when a copyFrom or a checkpoint reads it; and copyFrom leaves the
// destination holding P_k in p, whatever way its own memo named before.
func TestMemoWayHeldAcrossSteps(t *testing.T) {
	m := &queueing.Model{Name: "lazy", ThinkTime: 1, Stations: []queueing.Station{
		{Name: "cpu16", Kind: queueing.CPU, Servers: 16, Visits: 1, ServiceTime: 0.01},
	}}
	st, twin := newMultiServerState(m), newMultiServerState(m)
	defer func() { st.release(); twin.release() }()
	const u1, u2, u3 = 3.25, 7.5, 11.0
	for _, u := range []float64{u1, u2, u1, u1} { // miss, miss, hit, unchanged
		stepAt(m, st, []float64{u})
	}
	if st.stn[0].cur < 0 {
		t.Fatal("a memo hit copied P_k out of its way")
	}
	want, wantF := referenceClosedForm(u1, 16)
	stepAt(m, twin, []float64{u3}) // the twin's own way now holds another P_k
	twin.copyFrom(st)
	stepAt(m, twin, []float64{u1}) // the copied key: nothing to do
	twin.materialize()
	cp := &Checkpoint{}
	(&multiServerStepper{st: st}).checkpoint(cp)
	for name, got := range map[string][]float64{"copyFrom": twin.p[0], "checkpoint": cp.Marginal[0]} {
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: P(%d) = %v, want %v", name, j, got[j], want[j])
			}
		}
	}
	if math.Float64bits(twin.f[0]) != math.Float64bits(wantF) {
		t.Fatalf("copyFrom: F = %v, want %v", twin.f[0], wantF)
	}
}
