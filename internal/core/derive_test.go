package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/queueing"
)

// deriveModels are the models the row-derivation tests solve: the solver
// test model and five random ones, the last the seed that once broke
// TestQuickMoreServersNeverHurt.
func deriveModels() []*queueing.Model {
	return []*queueing.Model{solverTestModel(), randModel(1), randModel(2), randModel(7), randModel(11),
		randModel(-289554189060740383)}
}

// recursionQueues steps s to every population 1..maxN and returns the queue
// lengths its recursion holds after each step: want[n] is Checkpoint().Queue
// at n. A recursion that carries no queue vector (load-dependent MVA carries
// the marginal distribution) holds Little's law on its own step instead:
// X·D_k at a delay station and X times the residence time elsewhere.
func recursionQueues(t *testing.T, s *Solver, m *queueing.Model, maxN int) [][]float64 {
	t.Helper()
	defer s.Release()
	want := make([][]float64, maxN+1)
	for n := 1; n <= maxN; n++ {
		if err := s.Run(n); err != nil {
			t.Fatal(err)
		}
		cp, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if cp.Queue != nil {
			want[n] = cp.Queue
			continue
		}
		res := s.Result()
		i := res.IndexOf(n)
		x, resid, d := res.X[i], res.ResidenceRow(i), res.DemandsRow(i)
		q := make([]float64, len(m.Stations))
		for k, st := range m.Stations {
			if st.Kind == queueing.Delay {
				q[k] = x * d[k]
			} else {
				q[k] = x * resid[k]
			}
		}
		want[n] = q
	}
	return want
}

// requireRowBits fails unless got holds want's floats, bit for bit.
func requireRowBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if !sameBits(want, got) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
}

// requireUtilLaw fails unless util is the Utilization Law on x and the
// row's demands: min(X·D_k/C_k, 1) at a queueing station, 0 at a delay one.
func requireUtilLaw(t *testing.T, what string, m *queueing.Model, x float64, demands, util []float64) {
	t.Helper()
	want := make([]float64, len(m.Stations))
	for k, st := range m.Stations {
		if st.Kind != queueing.Delay {
			want[k] = math.Min(x*demands[k]/float64(st.Servers), 1)
		}
	}
	requireRowBits(t, what+" util", want, util)
}

// requireRowsDerive checks every stored row of res against the recursion's
// queue lengths and the Utilization Law.
func requireRowsDerive(t *testing.T, what string, res *Result, m *queueing.Model, want [][]float64) {
	t.Helper()
	for i, n := range res.N {
		row := fmt.Sprintf("%s row %d (n=%d)", what, i, n)
		requireRowBits(t, row+" queue", want[n], res.QueueLenRow(i))
		requireUtilLaw(t, row, m, res.X[i], res.DemandsRow(i), res.Util[i])
	}
}

// TestRowsDeriveFromRecursion: every row a solver stores holds the queue
// lengths its own recursion computed at that population, and the
// utilizations of the Utilization Law, bit for bit. It covers every
// producer — the eight Solver algorithms, Seidmann's transform and the
// multi-server Schweitzer fixed point — dense to N=300 and, for the
// Solvers, decimated at stride 7, through the state CheckpointAt rebuilds
// at each stored row and the rows Recover re-derives between them.
func TestRowsDeriveFromRecursion(t *testing.T) {
	const maxN, stride = 300, 7
	all := make([]int, maxN)
	for i := range all {
		all[i] = i + 1
	}
	for mi, m := range deriveModels() {
		for name, alg := range solverAlgorithms(t, m) {
			t.Run(fmt.Sprintf("model%d/%s", mi, name), func(t *testing.T) {
				want := recursionQueues(t, alg.fresh(), m, maxN)
				requireRowsDerive(t, "dense", alg.cold(maxN), m, want)

				s := alg.fresh()
				defer s.Release()
				if err := s.Decimate(stride); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(maxN); err != nil {
					t.Fatal(err)
				}
				dec := s.Result()
				requireRowsDerive(t, "decimated", dec, m, want)
				for i, n := range dec.N {
					if q := dec.CheckpointAt(i).Queue; q != nil {
						requireRowBits(t, fmt.Sprintf("CheckpointAt(%d) (n=%d) queue", i, n), want[n], q)
					}
				}
				rows, err := dec.Recover(all, func() (*Solver, error) { return alg.fresh(), nil })
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range rows {
					what := fmt.Sprintf("recovered n=%d", row.N)
					requireRowBits(t, what+" queue", want[row.N], row.QueueLen)
					requireUtilLaw(t, what, m, row.X, row.Demands, row.Util)
				}
			})
		}
		t.Run(fmt.Sprintf("model%d/seidmann", mi), func(t *testing.T) {
			tm := SeidmannTransform(m)
			s, err := NewExactMVASolver(tm)
			if err != nil {
				t.Fatal(err)
			}
			want := recursionQueues(t, s, tm, maxN)
			res, err := SeidmannMVA(m, maxN)
			if err != nil {
				t.Fatal(err)
			}
			requireRowsDerive(t, "dense", res, tm, want)
		})
		t.Run(fmt.Sprintf("model%d/schweitzer-multiserver", mi), func(t *testing.T) {
			res, err := SchweitzerMultiServer(m, maxN, SchweitzerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]float64, maxN+1)
			for n := 1; n <= maxN; n++ {
				want[n] = schweitzerMultiServerQueue(t, m, n)
			}
			requireRowsDerive(t, "dense", res, m, want)
		})
	}
}

// schweitzerMultiServerQueue solves SchweitzerMultiServer's fixed point at
// population n alone, from a fresh state, and returns its converged queue
// lengths: the reference a stored row must reproduce.
func schweitzerMultiServerQueue(t *testing.T, m *queueing.Model, n int) []float64 {
	t.Helper()
	var opts SchweitzerOptions
	opts.defaults()
	k := len(m.Stations)
	demands, perServer := m.Demands(), make([]float64, k)
	for i, st := range m.Stations {
		perServer[i] = demands[i] / float64(st.Servers)
	}
	st := newMultiServerState(m)
	defer st.release()
	q, resid := make([]float64, k), make([]float64, k)
	for i := range q {
		q[i] = float64(n) / float64(k)
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		for i := range q {
			st.queue[i] = float64(n-1) / float64(n) * q[i]
		}
		multiServerStep(m, st, demands, perServer, n, false, resid)
		worst := 0.0
		for i := range q {
			worst = math.Max(worst, math.Abs(st.queue[i]-q[i])/math.Max(q[i], 1e-12))
			q[i] = st.queue[i]
		}
		if worst < opts.Tol {
			return q
		}
	}
	t.Fatalf("schweitzer-multiserver reference did not converge at n=%d", n)
	return nil
}

// TestDerivedRowAccessors pins the contract of the derived rows: UtilRow
// holds what the Util field holds; QueueLenRow and UtilRow return rows the
// caller owns; the append forms append after dst's contents; a Prefix view
// derives the same rows; and a Result rebuilt from transported rows keeps
// the transported queue lengths, whatever its other rows derive.
func TestDerivedRowAccessors(t *testing.T) {
	m := solverTestModel()
	const maxN = 60
	for name, alg := range solverAlgorithms(t, m) {
		t.Run(name, func(t *testing.T) {
			res := alg.cold(maxN)
			view, err := res.Prefix(maxN / 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.N {
				requireRowBits(t, fmt.Sprintf("row %d UtilRow", i), res.Util[i], res.UtilRow(i))
				q := res.QueueLenRow(i)
				q[0] = -1
				if res.QueueLenRow(i)[0] == -1 {
					t.Fatalf("row %d: writing a QueueLenRow result changed the row", i)
				}
				u := res.UtilRow(i)
				u[0] = -1
				if res.UtilRow(i)[0] == -1 || res.Util[i][0] == -1 {
					t.Fatalf("row %d: writing a UtilRow result changed the row", i)
				}
				dst := []float64{7}
				requireRowBits(t, "AppendQueueLenRow", append([]float64{7}, res.QueueLenRow(i)...), res.AppendQueueLenRow(dst, i))
				requireRowBits(t, "AppendUtilRow", append([]float64{7}, res.UtilRow(i)...), res.AppendUtilRow(dst, i))
				if i < view.Len() {
					requireRowBits(t, "view QueueLenRow", res.QueueLenRow(i), view.QueueLenRow(i))
					requireRowBits(t, "view UtilRow", res.UtilRow(i), view.UtilRow(i))
				}
			}
		})
	}

	res := solverAlgorithms(t, m)["multiserver"].cold(3)
	queueLen := rowsOf(res, res.QueueLenRow)
	queueLen[1][0] = 42 // no row derives it; a transported Result keeps it
	rebuilt, err := RestoreResult(res.Algorithm, res.ModelName, res.ThinkTime, res.StationNames,
		res.X, res.R, res.Cycle, queueLen, rowsOf(res, res.UtilRow),
		rowsOf(res, res.ResidenceRow), rowsOf(res, res.DemandsRow))
	if err != nil {
		t.Fatal(err)
	}
	view, err := rebuilt.Prefix(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rebuilt.N {
		requireRowBits(t, fmt.Sprintf("transported row %d queue", i), queueLen[i], rebuilt.QueueLenRow(i))
		requireRowBits(t, fmt.Sprintf("transported row %d util", i), res.UtilRow(i), rebuilt.UtilRow(i))
		if i < view.Len() {
			requireRowBits(t, fmt.Sprintf("transported view row %d queue", i), queueLen[i], view.QueueLenRow(i))
		}
	}
}
