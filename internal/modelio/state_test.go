package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/queueing"
)

func stateTestModel() *queueing.Model {
	return &queueing.Model{
		Name:      "state-test",
		ThinkTime: 0.75,
		Stations: []queueing.Station{
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 2, ServiceTime: 0.01},
		},
	}
}

// TestTrajectoryStateJSONRoundTrip proves the peer-fill wire contract: a
// trajectory + checkpoint survives JSON encoding with every float64
// bit-identical, and a solver restored from the decoded state extends to the
// same bits as the source solver.
func TestTrajectoryStateJSONRoundTrip(t *testing.T) {
	m := stateTestModel()
	src, err := core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Release()
	if err := src.Run(200); err != nil {
		t.Fatal(err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := src.Result().Prefix(200)
	if err != nil {
		t.Fatal(err)
	}
	state, err := NewTrajectoryState(prefix, cp)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	var decoded TrajectoryState
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	traj, cp2, err := decoded.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for i := range prefix.N {
		if traj.X[i] != prefix.X[i] || traj.R[i] != prefix.R[i] {
			t.Fatalf("n=%d: decoded trajectory differs: X %v vs %v, R %v vs %v",
				i+1, traj.X[i], prefix.X[i], traj.R[i], prefix.R[i])
		}
	}

	dst, err := core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Release()
	if err := dst.Restore(traj, cp2); err != nil {
		t.Fatal(err)
	}
	if err := src.Extend(500); err != nil {
		t.Fatal(err)
	}
	if err := dst.Extend(500); err != nil {
		t.Fatal(err)
	}
	a, b := src.Result(), dst.Result()
	for i := range a.N {
		if a.X[i] != b.X[i] || a.R[i] != b.R[i] || a.Cycle[i] != b.Cycle[i] {
			t.Fatalf("n=%d: extended trajectories diverge after wire hop", i+1)
		}
		for k := range a.QueueLenRow(i) {
			if a.QueueLenRow(i)[k] != b.QueueLenRow(i)[k] || a.Util[i][k] != b.Util[i][k] {
				t.Fatalf("n=%d station %d: per-station metrics diverge after wire hop", i+1, k)
			}
		}
	}
}

func TestTrajectoryStateValidation(t *testing.T) {
	if _, _, err := (&TrajectoryState{}).Restore(); err == nil {
		t.Fatal("empty state restored")
	}
	bad := &TrajectoryState{
		Algorithm:    "exact-mva",
		StationNames: []string{"a"},
		X:            []float64{1, 2},
		R:            []float64{1}, // length mismatch
		Cycle:        []float64{1, 2},
		QueueLen:     [][]float64{{1}, {1}},
		Util:         [][]float64{{1}, {1}},
		Residence:    [][]float64{{1}, {1}},
		Demands:      [][]float64{{1}, {1}},
	}
	if _, _, err := bad.Restore(); err == nil {
		t.Fatal("mismatched row lengths restored")
	}
	if err := (&ExportRequest{}).Validate(); err == nil {
		t.Fatal("empty export request validated")
	}
	if err := (&ExportRequest{Key: "abc"}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// wireDigests pins the JSON bytes of the trajectory wire forms — the
// peer-fill TrajectoryState (encoded, and re-encoded after a RestoreResult
// round trip), deep-chunk rows and the /v1/solve trajectory — for a
// constant-demand and a varying-demand solve. The bytes were recorded while
// every Result row stored its own demand vector, so sharing one row changes
// no byte on the wire.
var wireDigests = map[string]string{
	"exact-mva-multiserver": "f9dc19e173c076c666c014378b424502cdbf33d3b4073cff08d53baf34b464a7",
	"mvasd":                 "13101ae827d37b0542eb461de7273b39d859c0292a7ff244c942685a22c22189",
}

func TestTrajectoryWireBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets other ports fuse x*y+z into one rounding.
		t.Skip("wire digests are recorded on amd64")
	}
	m := stateTestModel()
	dm, err := core.NewCurveDemands(interp.CubicNotAKnot, []core.DemandSamples{
		{At: []float64{1, 40, 160}, Demands: []float64{0.02, 0.018, 0.017}},
		{At: []float64{1, 40, 160}, Demands: []float64{0.02, 0.021, 0.019}},
	}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]func() (*core.Solver, error){
		"exact-mva-multiserver": func() (*core.Solver, error) {
			return core.NewMultiServerSolver(m, core.MultiServerOptions{TraceStation: -1})
		},
		"mvasd": func() (*core.Solver, error) {
			return core.NewMVASDSolver(m, dm, core.MVASDOptions{MultiServerOptions: core.MultiServerOptions{TraceStation: -1}})
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			h := sha256.New()
			encode := func(v any) []byte {
				t.Helper()
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
				return b
			}
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			if err := s.Run(300); err != nil {
				t.Fatal(err)
			}
			cp, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			state, err := NewTrajectoryState(s.Result(), cp)
			if err != nil {
				t.Fatal(err)
			}
			wire := encode(state)
			var decoded TrajectoryState
			if err := json.Unmarshal(wire, &decoded); err != nil {
				t.Fatal(err)
			}
			traj, cp2, err := decoded.Restore()
			if err != nil {
				t.Fatal(err)
			}
			again, err := NewTrajectoryState(traj, cp2)
			if err != nil {
				t.Fatal(err)
			}
			if round := encode(again); !bytes.Equal(round, wire) {
				t.Fatal("RestoreResult round trip changed the trajectory state's bytes")
			}
			encode(NewTrajectory(s.Result(), 7))

			deep, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer deep.Release()
			if err := deep.Decimate(16); err != nil {
				t.Fatal(err)
			}
			if err := deep.Run(300); err != nil {
				t.Fatal(err)
			}
			encode(NewDeepRows(deep.Result()))

			if got, want := hex.EncodeToString(h.Sum(nil)), wireDigests[name]; got != want {
				t.Errorf("%s wire bytes changed: digest %s, want %s", name, got, want)
			}
		})
	}
}
