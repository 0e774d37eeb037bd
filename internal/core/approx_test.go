package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/queueing"
)

func TestSeidmannTransformStructure(t *testing.T) {
	m := &queueing.Model{
		Name:      "seid",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.04},
			{Name: "disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.01},
			{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.005},
		},
	}
	tr := SeidmannTransform(m)
	if len(tr.Stations) != 4 {
		t.Fatalf("%d stations, want 4 (cpu split in two)", len(tr.Stations))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The CPU splits into a 0.01 s single server and a 0.03 s delay.
	if tr.Stations[0].Servers != 1 || math.Abs(tr.Stations[0].ServiceTime-0.01) > 1e-15 {
		t.Errorf("queue stage: %+v", tr.Stations[0])
	}
	if tr.Stations[1].Kind != queueing.Delay || math.Abs(tr.Stations[1].ServiceTime-0.03) > 1e-15 {
		t.Errorf("transit stage: %+v", tr.Stations[1])
	}
	// Total demand preserved.
	if math.Abs(tr.TotalDemand()-m.TotalDemand()) > 1e-15 {
		t.Errorf("demand changed: %g vs %g", tr.TotalDemand(), m.TotalDemand())
	}
	// Originals untouched.
	if m.Stations[0].Servers != 4 {
		t.Error("transform mutated input")
	}
}

func TestSeidmannMVAAccuracy(t *testing.T) {
	// Seidmann's approximation must be exact at n=1 (R = D) and track the
	// exact load-dependent solution within a few percent overall — much
	// better than naive folding.
	m := &queueing.Model{
		Name:      "seid-acc",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 8, Visits: 1, ServiceTime: 0.08},
			{Name: "disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.004},
		},
	}
	maxN := 300
	seid, err := SeidmannMVA(m, maxN)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seid.R[0]-m.TotalDemand()) > 1e-12 {
		t.Fatalf("R(1) = %g, want total demand %g", seid.R[0], m.TotalDemand())
	}
	exact, err := LoadDependentMVA(m, maxN, nil)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := ExactMVA(NormalizeServers(m), maxN)
	if err != nil {
		t.Fatal(err)
	}
	var seidWorst, foldedWorst float64
	for i := range exact.X {
		seidWorst = math.Max(seidWorst, math.Abs(seid.X[i]-exact.X[i])/exact.X[i])
		foldedWorst = math.Max(foldedWorst, math.Abs(folded.X[i]-exact.X[i])/exact.X[i])
	}
	if seidWorst > 0.10 {
		t.Errorf("Seidmann worst deviation %.1f%%", seidWorst*100)
	}
	if seidWorst >= foldedWorst {
		t.Errorf("Seidmann (%.2f%%) should beat naive folding (%.2f%%)",
			seidWorst*100, foldedWorst*100)
	}
	if err := seid.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSchweitzerMultiServerAccuracy(t *testing.T) {
	m := &queueing.Model{
		Name:      "amva-ms",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.CPU, Servers: 8, Visits: 1, ServiceTime: 0.06},
			{Name: "disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.005},
		},
	}
	maxN := 300
	amva, err := SchweitzerMultiServer(m, maxN, SchweitzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := amva.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	exactMS, _, err := ExactMVAMultiServer(m, maxN, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The approximate fixed point should stay close to the exact recursion
	// it approximates.
	worst := 0.0
	for i := range amva.X {
		worst = math.Max(worst, math.Abs(amva.X[i]-exactMS.X[i])/exactMS.X[i])
	}
	if worst > 0.08 {
		t.Errorf("AMVA-multiserver deviates %.1f%% from Algorithm 2", worst*100)
	}
	// And respect the capacity bound.
	dmax, _ := m.MaxDemand()
	for i := range amva.X {
		if amva.X[i] > (1/dmax)*(1+1e-6) {
			t.Fatalf("n=%d: X=%g above bound", amva.N[i], amva.X[i])
		}
	}
}

func TestSchweitzerMultiServerSingleServerReduction(t *testing.T) {
	// With all C=1 it reduces to plain Schweitzer.
	m := &queueing.Model{
		Name:      "amva-1s",
		ThinkTime: 0.5,
		Stations: []queueing.Station{
			{Name: "a", Kind: queueing.CPU, Servers: 1, Visits: 1, ServiceTime: 0.01},
			{Name: "b", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.007},
		},
	}
	ms, err := SchweitzerMultiServer(m, 100, SchweitzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Schweitzer(m, 100, SchweitzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms.X {
		if math.Abs(ms.X[i]-plain.X[i]) > 1e-6*plain.X[i] {
			t.Fatalf("n=%d: %g vs %g", ms.N[i], ms.X[i], plain.X[i])
		}
	}
}

// schweitzerMultiServerDigests pins the float bits SchweitzerMultiServer
// produced while it built a fresh multi-server state for every population,
// so reusing one state (and its closed-form memo) across populations is
// checked to change no float.
var schweitzerMultiServerDigests = map[string]string{
	"golden":           "b6f24f13445f0b9118c268fab349c1da7550ebef976dffc7e45e713019ef033a",
	"golden-saturated": "25a428f5d2d188d95ccd19de3e550ed7347763037d75867212449db12e14df43",
}

func TestSchweitzerMultiServerGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64")
	}
	for _, m := range []*queueing.Model{goldenModel(), goldenSaturatedModel()} {
		res, err := SchweitzerMultiServer(m, 600, SchweitzerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		hashResult(h, res)
		if got, want := hex.EncodeToString(h.Sum(nil)), schweitzerMultiServerDigests[m.Name]; got != want {
			t.Errorf("%s: schweitzer-multiserver digest %s, want %s", m.Name, got, want)
		}
	}
}
