package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/interp"
	"repro/internal/queueing"
)

// goldenModel is shaped like a deep capacity-planning request: twelve
// stations, three of them 16-core CPUs, a saturating single-server disk (so
// the trajectory runs far past the knee, where the throughput settles to the
// same float on consecutive populations) and a delay centre.
func goldenModel() *queueing.Model {
	st := []queueing.Station{
		{Name: "web/cpu", Kind: queueing.CPU, Servers: 16, Visits: 1, ServiceTime: 0.031},
		{Name: "app/cpu", Kind: queueing.CPU, Servers: 16, Visits: 1, ServiceTime: 0.047},
		{Name: "db/cpu", Kind: queueing.CPU, Servers: 16, Visits: 1, ServiceTime: 0.022},
		{Name: "web/disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.0011},
		{Name: "app/disk", Kind: queueing.Disk, Servers: 2, Visits: 2, ServiceTime: 0.0017},
		{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 3, ServiceTime: 0.0013},
		{Name: "web/net", Kind: queueing.NetTx, Servers: 1, Visits: 1, ServiceTime: 0.0007},
		{Name: "app/net", Kind: queueing.NetTx, Servers: 1, Visits: 1, ServiceTime: 0.0009},
		{Name: "db/net", Kind: queueing.NetRx, Servers: 1, Visits: 1, ServiceTime: 0.0006},
		{Name: "cache/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.006},
		{Name: "log/disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.0021},
		{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.004},
	}
	return &queueing.Model{Name: "golden", ThinkTime: 1, Stations: st}
}

// goldenSaturatedModel drives one 16-core CPU to saturation: its per-server
// demand is 2.5× that of the next-busiest station, so past the knee X·D_k
// reaches C_k in float64 and the closed-form update takes its saturated
// branch (P_k ≡ 0, F_k = 0).
func goldenSaturatedModel() *queueing.Model {
	st := []queueing.Station{
		{Name: "web/cpu", Kind: queueing.CPU, Servers: 16, Visits: 1, ServiceTime: 0.012},
		{Name: "db/cpu", Kind: queueing.CPU, Servers: 16, Visits: 1, ServiceTime: 0.08},
		{Name: "app/disk", Kind: queueing.Disk, Servers: 2, Visits: 2, ServiceTime: 0.0017},
		{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: 0.002},
		{Name: "cache/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.006},
		{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.004},
	}
	return &queueing.Model{Name: "golden-saturated", ThinkTime: 1, Stations: st}
}

// goldenDemands fits per-station demand samples that fall by up to 15% with
// load, on the concurrency axis or (throughputAxis) the throughput axis.
func goldenDemands(t *testing.T, m *queueing.Model, throughputAxis bool) DemandModel {
	t.Helper()
	at := []float64{1, 60, 240, 900}
	if throughputAxis {
		at = []float64{1, 40, 160, 500}
	}
	samples := make([]DemandSamples, len(m.Stations))
	for i, st := range m.Stations {
		d := st.Demand()
		samples[i] = DemandSamples{At: at, Demands: []float64{d, d * 0.95, d * 0.88, d * 0.85}}
	}
	var (
		dm  DemandModel
		err error
	)
	if throughputAxis {
		dm, err = NewThroughputDemands(interp.CubicNotAKnot, samples, interp.Options{})
	} else {
		dm, err = NewCurveDemands(interp.CubicNotAKnot, samples, interp.Options{})
	}
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

// goldenDigests pins the float bits every stepper produced before the
// stored-row-only fill and the cached correction factor. Regenerate only for
// a deliberate numerical change, and say so in the change description.
// The load-dependent digest was recorded with that solver's delay-station
// marginal rows cleared as they grow: before, they kept whatever a pooled
// vector held, so its checkpoints varied with the pool's history.
// The multiserver-saturated digest was recorded on the one-entry
// utilization cache that preceded the per-station closed-form memo.
var goldenDigests = map[string]string{
	"exact":                 "843f118924d799303ef22fc0d7b59a4f1a3d147d6fb369ab90ac47741f4597b4",
	"schweitzer":            "02c0eac1b5904679b709aae2706db6c94a6a1eda7acb0da56d2a7fed2332a4bd",
	"loaddep":               "06fce2ba2d2e9c3fde445291d012f7c16aed858490851a3794c97e8c12ba7c8d",
	"multiserver":           "a4b5ada2da5771e36e640e028714826540bdc2efe8947d99b35a20cdc942b522",
	"multiserver-saturated": "e2632d446bdc07081455dceb068b43991364a4961789bba727aa5d61c29d0635",
	"multiserver-verbatim":  "8b86a4e876e4d1ae8c4ee292a1867aee630868e34200de98735d0f5150f07a44",
	"mvasd":                 "53c91fb79772b0a676bfc5d35f60102c925ef695835a2bed2637c7845b5cf2fd",
	"mvasd-throughput":      "42c2b250f958120fa1f5a63beb802cfcbdd21804d97bf5c20d2bf84d240fa01d",
	"mvasd-single":          "5473215a64171f0ea2e9ef808eb15579f4f2598ff82a6a3ea9695e32279ea215",
}

// TestTrajectoryGolden hashes the exact float bits of every row and
// checkpoint that each stepper stores — dense, strided, split across
// Run/Extend, resumed from a checkpoint and recovered — and compares them
// with digests recorded from the reference implementation. The other
// bit-identity tests compare the current code with itself; this one catches
// any change to a produced float.
func TestTrajectoryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets other ports fuse x*y+z into one rounding.
		t.Skip("golden digests are recorded on amd64")
	}
	m := goldenModel()
	builders := map[string]func() (*Solver, error){
		"exact":      func() (*Solver, error) { return NewExactMVASolver(m) },
		"schweitzer": func() (*Solver, error) { return NewSchweitzerSolver(m, SchweitzerOptions{}) },
		"loaddep":    func() (*Solver, error) { return NewLoadDependentSolver(m, nil) },
		"multiserver": func() (*Solver, error) {
			return NewMultiServerSolver(m, MultiServerOptions{TraceStation: -1})
		},
		"multiserver-saturated": func() (*Solver, error) {
			return NewMultiServerSolver(goldenSaturatedModel(), MultiServerOptions{TraceStation: -1})
		},
		"multiserver-verbatim": func() (*Solver, error) {
			return NewMultiServerSolver(m, MultiServerOptions{Verbatim: true, TraceStation: -1})
		},
		"mvasd": func() (*Solver, error) {
			return NewMVASDSolver(m, goldenDemands(t, m, false), MVASDOptions{MultiServerOptions: MultiServerOptions{TraceStation: -1}})
		},
		"mvasd-throughput": func() (*Solver, error) {
			return NewMVASDSolver(m, goldenDemands(t, m, true), MVASDOptions{MultiServerOptions: MultiServerOptions{TraceStation: -1}})
		},
		"mvasd-single": func() (*Solver, error) {
			return NewMVASDSingleServerSolver(m, goldenDemands(t, m, false), MVASDOptions{})
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			maxN := 3003
			if name == "loaddep" {
				maxN = 403 // O(N²) per run
			}
			got := goldenDigest(t, build, maxN)
			want, ok := goldenDigests[name]
			if !ok {
				t.Fatalf("no golden digest for %s (got %s)", name, got)
			}
			if got != want {
				t.Fatalf("%s trajectory bits changed: digest %s, want %s", name, got, want)
			}
		})
	}
}

// goldenDigest runs the fixed set of solves for one algorithm and returns
// the SHA-256 of every stored float's bits.
func goldenDigest(t *testing.T, build func() (*Solver, error), maxN int) string {
	t.Helper()
	h := sha256.New()
	solve := func(stride int, runs ...int) *Solver {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Decimate(stride); err != nil {
			t.Fatal(err)
		}
		for _, n := range runs {
			if err := s.Run(n); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	for _, stride := range []int{1, 3, 50} {
		s := solve(stride, maxN)
		hashResult(h, s.Result())
		s.Release()
	}
	split := solve(50, maxN/2, maxN)
	defer split.Release()
	res := split.Result()
	hashResult(h, res)

	// A chunk resumed from a mid-run checkpoint, solved densely.
	cp := res.CheckpointAt(res.Len() / 2)
	chunk, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer chunk.Release()
	if err := chunk.ResumeFrom(cp); err != nil {
		t.Fatal(err)
	}
	if err := chunk.Run(cp.N + 137); err != nil {
		t.Fatal(err)
	}
	hashResult(h, chunk.Result())

	// Skipped rows re-derived from the states rebuilt at stored rows.
	rows, err := res.Recover([]int{1, 49, maxN / 3, maxN - 1}, build)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		hashInts(h, r.N)
		hashFloats(h, r.X, r.R, r.Cycle)
		hashFloats(h, r.QueueLen...)
		hashFloats(h, r.Util...)
		hashFloats(h, r.Residence...)
		hashFloats(h, r.Demands...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashResult(h hash.Hash, r *Result) {
	hashInts(h, r.N...)
	hashFloats(h, r.X...)
	hashFloats(h, r.R...)
	hashFloats(h, r.Cycle...)
	utilRow := func(i int) []float64 { return r.Util[i] }
	for _, row := range []func(int) []float64{r.QueueLenRow, utilRow, r.ResidenceRow, r.DemandsRow} {
		for i := range r.N {
			hashFloats(h, row(i)...)
		}
	}
	for i := range r.N {
		cp := r.CheckpointAt(i)
		if cp == nil {
			break // a dense trajectory keeps no state
		}
		hashInts(h, cp.N)
		hashFloats(h, cp.Queue...)
		for _, row := range cp.Marginal {
			hashFloats(h, row...)
		}
		hashFloats(h, cp.X)
	}
}

func hashInts(h hash.Hash, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
