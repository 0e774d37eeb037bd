package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/queueing"
)

func checkpointModel() *queueing.Model {
	return &queueing.Model{
		Name:      "checkpoint-test",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 2, Visits: 2, ServiceTime: 0.008},
			{Name: "net", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.005},
		},
	}
}

func checkpointDemandModel(t *testing.T, m *queueing.Model, throughputAxis bool) DemandModel {
	t.Helper()
	samples := make([]DemandSamples, len(m.Stations))
	for i, st := range m.Stations {
		d := st.Demand()
		samples[i] = DemandSamples{
			At:      []float64{1, 50, 200, 600},
			Demands: []float64{d, d * 0.95, d * 0.9, d * 0.88},
		}
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

// TestCheckpointRestoreBitIdentical proves the cluster peer-fill contract for
// every resumable algorithm: run a source solver to n1, move (trajectory,
// checkpoint) to a fresh solver, extend both to n2 — the restored solver's
// trajectory must be bit-identical to the source's (and hence to a cold
// solve, which the solver tests already guarantee for extends).
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	m := checkpointModel()
	const n1, n2 = 120, 400
	builders := map[string]func() (*Solver, error){
		"exact":          func() (*Solver, error) { return NewExactMVASolver(m) },
		"schweitzer":     func() (*Solver, error) { return NewSchweitzerSolver(m, SchweitzerOptions{}) },
		"multiserver":    func() (*Solver, error) { return NewMultiServerSolver(m, MultiServerOptions{TraceStation: -1}) },
		"load-dependent": func() (*Solver, error) { return NewLoadDependentSolver(m, nil) },
		"mvasd": func() (*Solver, error) {
			return NewMVASDSolver(m, checkpointDemandModel(t, m, false), MVASDOptions{})
		},
		"mvasd-throughput": func() (*Solver, error) {
			return NewMVASDSolver(m, checkpointDemandModel(t, m, true), MVASDOptions{})
		},
		"mvasd-1s": func() (*Solver, error) {
			return NewMVASDSingleServerSolver(m, checkpointDemandModel(t, m, false), MVASDOptions{})
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			src, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer src.Release()
			if err := src.Run(n1); err != nil {
				t.Fatal(err)
			}
			cp, err := src.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			traj, err := src.Result().Prefix(n1)
			if err != nil {
				t.Fatal(err)
			}

			dst, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Release()
			if err := dst.Restore(traj, cp); err != nil {
				t.Fatal(err)
			}
			if dst.N() != n1 {
				t.Fatalf("restored solver at N=%d, want %d", dst.N(), n1)
			}

			if err := src.Extend(n2); err != nil {
				t.Fatal(err)
			}
			if err := dst.Extend(n2); err != nil {
				t.Fatal(err)
			}
			compareTrajectories(t, src.Result(), dst.Result())
		})
	}
}

// compareTrajectories requires exact (bitwise) float equality on every metric.
func compareTrajectories(t *testing.T, want, got *Result) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("lengths differ: want %d, got %d", want.Len(), got.Len())
	}
	for i := range want.N {
		if want.X[i] != got.X[i] || want.R[i] != got.R[i] || want.Cycle[i] != got.Cycle[i] {
			t.Fatalf("n=%d: X/R/Cycle differ: want (%v %v %v), got (%v %v %v)",
				i+1, want.X[i], want.R[i], want.Cycle[i], got.X[i], got.R[i], got.Cycle[i])
		}
		for k := range want.QueueLenRow(i) {
			if want.QueueLenRow(i)[k] != got.QueueLenRow(i)[k] ||
				want.Util[i][k] != got.Util[i][k] ||
				want.ResidenceRow(i)[k] != got.ResidenceRow(i)[k] ||
				want.DemandsRow(i)[k] != got.DemandsRow(i)[k] {
				t.Fatalf("n=%d station %d: per-station metrics differ", i+1, k)
			}
		}
	}
}

// TestRestoreRejectsMismatches exercises the validation paths: wrong
// algorithm, wrong population, and a non-fresh target.
func TestRestoreRejectsMismatches(t *testing.T) {
	m := checkpointModel()
	src, err := NewMultiServerSolver(m, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Release()
	if err := src.Run(10); err != nil {
		t.Fatal(err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	traj, err := src.Result().Prefix(10)
	if err != nil {
		t.Fatal(err)
	}

	other, err := NewExactMVASolver(m)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Release()
	if err := other.Restore(traj, cp); err == nil {
		t.Fatal("restore accepted a mismatched algorithm")
	}
	if other.N() != 0 {
		t.Fatalf("failed restore left solver at N=%d", other.N())
	}

	dst, err := NewMultiServerSolver(m, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Release()
	badCP := *cp
	badCP.N = 9
	if err := dst.Restore(traj, &badCP); err == nil {
		t.Fatal("restore accepted checkpoint/trajectory population mismatch")
	}
	if err := dst.Restore(traj, cp); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(traj, cp); err == nil {
		t.Fatal("restore accepted a non-fresh solver")
	}
}

// TestRestoreResultRoundTrip rebuilds a Result from its public rows and
// checks it can seed a restore.
func TestRestoreResultRoundTrip(t *testing.T) {
	m := checkpointModel()
	src, err := NewMultiServerSolver(m, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Release()
	if err := src.Run(50); err != nil {
		t.Fatal(err)
	}
	res := src.Result()
	rebuilt, err := RestoreResult(res.Algorithm, res.ModelName, res.ThinkTime, res.StationNames,
		res.X, res.R, res.Cycle, rowsOf(res, res.QueueLenRow), res.Util,
		rowsOf(res, res.ResidenceRow), rowsOf(res, res.DemandsRow))
	if err != nil {
		t.Fatal(err)
	}
	compareTrajectories(t, res, rebuilt)
	if rebuilt.ModelName != res.ModelName || rebuilt.ThinkTime != res.ThinkTime {
		t.Fatal("metadata not preserved")
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewMultiServerSolver(m, MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Release()
	if err := dst.Restore(rebuilt, cp); err != nil {
		t.Fatal(err)
	}
	if err := dst.Extend(80); err != nil {
		t.Fatal(err)
	}
	if err := src.Extend(80); err != nil {
		t.Fatal(err)
	}
	compareTrajectories(t, src.Result(), dst.Result())
}

// TestRestoreRejectsForeignDemands: a constant-demand solver keeps one
// demand row, so it refuses a trajectory whose demands differ from its
// model's in any row, by a single bit, and stays fresh: a later restore of
// the genuine trajectory extends bit-identically to the source.
func TestRestoreRejectsForeignDemands(t *testing.T) {
	m := checkpointModel()
	build := func() *Solver {
		s, err := NewMultiServerSolver(m, MultiServerOptions{TraceStation: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src := build()
	defer src.Release()
	if err := src.Run(50); err != nil {
		t.Fatal(err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	res := src.Result()
	restored := func(demands [][]float64) *Result {
		r, err := RestoreResult(res.Algorithm, res.ModelName, res.ThinkTime, res.StationNames,
			res.X, res.R, res.Cycle, rowsOf(res, res.QueueLenRow), res.Util,
			rowsOf(res, res.ResidenceRow), demands)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	demands := cloneVecs(rowsOf(res, res.DemandsRow))
	demands[37][1] = math.Nextafter(demands[37][1], 1)

	dst := build()
	defer dst.Release()
	if err := dst.Restore(restored(demands), cp); !errors.Is(err, ErrBadRun) {
		t.Fatalf("restore of foreign demands: err %v, want ErrBadRun", err)
	}
	if dst.N() != 0 || dst.Result().Len() != 0 {
		t.Fatalf("refused restore left the solver at N=%d with %d rows", dst.N(), dst.Result().Len())
	}
	want := dst.Result().dConst
	if !sameBits(want, m.Demands()) {
		t.Fatal("refused restore changed the shared demand row")
	}
	if err := dst.Restore(restored(rowsOf(res, res.DemandsRow)), cp); err != nil {
		t.Fatal(err)
	}
	if err := dst.Extend(80); err != nil {
		t.Fatal(err)
	}
	if err := src.Extend(80); err != nil {
		t.Fatal(err)
	}
	compareTrajectories(t, src.Result(), dst.Result())
}

// TestCloneVecsFlat: a checkpoint's marginal rows share one flat backing
// array yet behave like independent row copies — same values and JSON,
// empty rows nil, and no row can grow into its neighbour.
func TestCloneVecsFlat(t *testing.T) {
	src := [][]float64{{1, 0.5, 0.25}, {}, nil, {2}, {3, 4}}
	got := cloneVecs(src)
	want := make([][]float64, len(src))
	for i, row := range src {
		want[i] = append([]float64(nil), row...)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("flat clone JSON %s, row-by-row %s", gj, wj)
	}
	src[0][0] = 9
	if got[0][0] != 1 {
		t.Fatal("clone shares memory with its source")
	}
	for i, row := range got {
		if cap(row) != len(row) {
			t.Fatalf("row %d has spare capacity %d", i, cap(row)-len(row))
		}
	}
	_ = append(got[3], 7)
	if got[4][0] != 3 {
		t.Fatal("appending to a row overwrote the next")
	}
	if cloneVecs(nil) != nil {
		t.Fatal("nil clone is not nil")
	}
	if allocs := testing.AllocsPerRun(10, func() { cloneVecs(src) }); allocs != 2 {
		t.Fatalf("clone allocates %.0f times, want 2", allocs)
	}
}

// TestLoadDependentCheckpointClearsPooledData: the load-dependent solver's
// marginal rows grow into pooled capacity, and a delay station's row is
// never updated, so a checkpoint must not ship what a pooled vector held.
func TestLoadDependentCheckpointClearsPooledData(t *testing.T) {
	m := checkpointModel()
	for i := 0; i < 2*len(m.Stations); i++ {
		dirty := make([]float64, 64)
		for j := range dirty {
			dirty[j] = 7
		}
		putVec(dirty)
	}
	s, err := NewLoadDependentSolver(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if err := s.Run(30); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range m.Stations {
		if st.Kind != queueing.Delay {
			continue
		}
		row := cp.Marginal[k]
		if len(row) != 31 || row[0] != 1 {
			t.Fatalf("delay row %d: len %d, p(0) %g", k, len(row), row[0])
		}
		for j, v := range row[1:] {
			if v != 0 {
				t.Fatalf("delay row %d holds %g at %d, want 0", k, v, j+1)
			}
		}
	}
}

// rowsOf collects every stored row of one of r's row accessors.
func rowsOf(r *Result, row func(int) []float64) [][]float64 {
	out := make([][]float64, r.Len())
	for i := range out {
		out[i] = row(i)
	}
	return out
}
