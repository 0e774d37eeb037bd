package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// rowEqualsRecovered fails unless stored row i of dense equals rec bit for
// bit.
func rowEqualsRecovered(t *testing.T, dense *Result, rec RecoveredRow) {
	t.Helper()
	i := dense.IndexOf(rec.N)
	if i < 0 {
		t.Fatalf("population %d not in dense trajectory", rec.N)
	}
	if dense.X[i] != rec.X || dense.R[i] != rec.R || dense.Cycle[i] != rec.Cycle {
		t.Fatalf("n=%d scalars differ: X %v/%v R %v/%v Cycle %v/%v",
			rec.N, dense.X[i], rec.X, dense.R[i], rec.R, dense.Cycle[i], rec.Cycle)
	}
	for k := range dense.StationNames {
		if dense.QueueLenRow(i)[k] != rec.QueueLen[k] || dense.UtilRow(i)[k] != rec.Util[k] ||
			dense.ResidenceRow(i)[k] != rec.Residence[k] || dense.DemandsRow(i)[k] != rec.Demands[k] {
			t.Fatalf("n=%d station %d metrics differ", rec.N, k)
		}
	}
}

// TestDecimatedBitIdenticalToDense is the decimation property test: a
// decimated solve's stored rows (and their rebuilt checkpoints) must be
// float-for-float identical to the dense solve, for every algorithm.
func TestDecimatedBitIdenticalToDense(t *testing.T) {
	m := solverTestModel()
	const maxN, stride = 137, 10
	for name, alg := range solverAlgorithms(t, m) {
		t.Run(name, func(t *testing.T) {
			dense := alg.cold(maxN)
			s := alg.fresh()
			defer s.Release()
			if err := s.Decimate(stride); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(maxN); err != nil {
				t.Fatal(err)
			}
			dec := s.Result()
			if dec.SolvedN() != maxN || s.N() != maxN {
				t.Fatalf("SolvedN=%d N()=%d, want %d", dec.SolvedN(), s.N(), maxN)
			}
			wantRows := maxN/stride + 1 // 10,20,...,130 plus the final 137
			if dec.Len() != wantRows {
				t.Fatalf("stored %d rows, want %d", dec.Len(), wantRows)
			}
			for i, n := range dec.N {
				if n%stride != 0 && n != maxN {
					t.Fatalf("stored population %d is neither stride-aligned nor final", n)
				}
				if cp := dec.CheckpointAt(i); cp == nil || cp.N != n {
					t.Fatalf("row %d holds population %d, its checkpoint %+v", i, n, cp)
				}
				j := dense.IndexOf(n)
				if j != n-1 {
					t.Fatalf("dense IndexOf(%d) = %d", n, j)
				}
				if dec.X[i] != dense.X[j] || dec.R[i] != dense.R[j] || dec.Cycle[i] != dense.Cycle[j] {
					t.Fatalf("n=%d: decimated row differs from dense", n)
				}
				for k := range m.Stations {
					if dec.QueueLenRow(i)[k] != dense.QueueLenRow(j)[k] || dec.UtilRow(i)[k] != dense.UtilRow(j)[k] ||
						dec.ResidenceRow(i)[k] != dense.ResidenceRow(j)[k] || dec.DemandsRow(i)[k] != dense.DemandsRow(j)[k] {
						t.Fatalf("n=%d station %d: decimated metrics differ from dense", n, k)
					}
				}
			}
			// The final checkpoint must extend bit-identically to the dense
			// solve continuing past maxN.
			cp, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if cp.N != maxN {
				t.Fatalf("final checkpoint at %d, want %d", cp.N, maxN)
			}
			cont := alg.fresh()
			defer cont.Release()
			if err := cont.ResumeFrom(cp); err != nil {
				t.Fatal(err)
			}
			if err := cont.Run(maxN + 20); err != nil {
				t.Fatal(err)
			}
			denseLong := alg.cold(maxN + 20)
			chunk := cont.Result()
			if chunk.BasePop() != maxN || chunk.Len() != 20 {
				t.Fatalf("resumed chunk basePop=%d len=%d", chunk.BasePop(), chunk.Len())
			}
			for i, n := range chunk.N {
				if n != maxN+i+1 {
					t.Fatalf("chunk row %d holds population %d", i, n)
				}
				if chunk.X[i] != denseLong.X[n-1] {
					t.Fatalf("n=%d: resumed chunk X=%v, dense %v", n, chunk.X[i], denseLong.X[n-1])
				}
			}
		})
	}
}

// TestDecimatedRecoverSkippedRows re-derives every skipped population from
// the states rebuilt at stored rows and requires exact equality with the
// dense solve.
func TestDecimatedRecoverSkippedRows(t *testing.T) {
	m := solverTestModel()
	const maxN, stride = 97, 12
	for name, alg := range solverAlgorithms(t, m) {
		t.Run(name, func(t *testing.T) {
			dense := alg.cold(maxN)
			s := alg.fresh()
			defer s.Release()
			if err := s.Decimate(stride); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(maxN); err != nil {
				t.Fatal(err)
			}
			ns := make([]int, maxN)
			for i := range ns {
				ns[i] = i + 1
			}
			freshErr := func() (*Solver, error) { return alg.fresh(), nil }
			rows, err := s.Result().Recover(ns, freshErr)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != maxN {
				t.Fatalf("recovered %d rows, want %d", len(rows), maxN)
			}
			for _, rec := range rows {
				rowEqualsRecovered(t, dense, rec)
			}
			// Out-of-range and unordered requests are rejected.
			if _, err := s.Result().Recover([]int{maxN + 1}, freshErr); !errors.Is(err, ErrBadRun) {
				t.Fatalf("recover beyond SolvedN: err=%v", err)
			}
			if _, err := s.Result().Recover([]int{5, 3}, freshErr); !errors.Is(err, ErrBadRun) {
				t.Fatalf("unordered recover: err=%v", err)
			}
		})
	}
}

// TestDecimatedCancelKeepsFilledFrontier cancels a decimated run between
// stored rows. The frontier population it advanced through must come back as
// a complete final row — Little's law holds, utilizations are in [0, 1], and
// it is bit-identical to the dense solve — in Result() and in the published
// PrefixPop(SolvedN) snapshot, with a checkpoint beside it; resuming must
// then store the same rows as an uncancelled run.
func TestDecimatedCancelKeepsFilledFrontier(t *testing.T) {
	m := solverTestModel()
	const cutN, stride, maxN = 1234, 100, 2000
	for name, alg := range solverAlgorithms(t, m) {
		t.Run(name, func(t *testing.T) {
			dense := alg.cold(cutN)
			ref := alg.fresh()
			defer ref.Release()
			if err := ref.Decimate(stride); err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(maxN); err != nil {
				t.Fatal(err)
			}

			s := alg.fresh()
			defer s.Release()
			if err := s.Decimate(stride); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s.SetHooks(&SolveHooks{OnStep: func(n int, _ float64) {
				if n == cutN {
					cancel()
				}
			}})
			if err := s.RunContext(ctx, maxN); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			s.SetHooks(nil)
			if s.N() != cutN {
				t.Fatalf("N() = %d after cancelling at %d", s.N(), cutN)
			}
			res := s.Result()
			snap, err := res.PrefixPop(res.SolvedN())
			if err != nil {
				t.Fatal(err)
			}
			for view, r := range map[string]*Result{"Result()": res, "PrefixPop(SolvedN)": snap} {
				last := r.Len() - 1
				if r.N[last] != cutN {
					t.Fatalf("%s: last stored population %d, want the frontier %d", view, r.N[last], cutN)
				}
				sumQ := r.X[last] * m.ThinkTime
				for k, q := range r.QueueLenRow(last) {
					sumQ += q
					if u := r.UtilRow(last)[k]; !(u >= 0 && u <= 1) {
						t.Fatalf("%s: station %d utilization %v outside [0, 1]", view, k, u)
					}
				}
				if math.Abs(sumQ-cutN) > 1e-9*cutN {
					t.Fatalf("%s: ΣQ + X·Z = %v, want %d", view, sumQ, cutN)
				}
				rowsEqual(t, r, last, dense, cutN-1)
				if cp := r.CheckpointAt(last); cp == nil || cp.N != cutN {
					t.Fatalf("%s: frontier row's checkpoint %+v, want one at %d", view, cp, cutN)
				}
			}

			if err := s.Run(maxN); err != nil {
				t.Fatal(err)
			}
			for i, n := range res.N {
				if n == cutN {
					continue
				}
				j := ref.Result().IndexOf(n)
				if j < 0 {
					t.Fatalf("resumed run stored population %d, which the uncancelled run did not", n)
				}
				rowsEqual(t, res, i, ref.Result(), j)
			}
			if res.Len() != ref.Result().Len()+1 {
				t.Fatalf("resumed run stored %d rows, want %d plus the cancelled frontier", res.Len(), ref.Result().Len())
			}
		})
	}
}

// TestDecimatedUnalignedFrontiers pins which populations a decimated run
// keeps when it starts from a frontier that is not a stride multiple: a
// solver extended from one (Run(1234), then Extend(2000)) and one resumed at
// one both keep every stride multiple after the frontier and each run's
// target, and each kept row equals the same population of one cold dense
// run, bit for bit.
func TestDecimatedUnalignedFrontiers(t *testing.T) {
	m := solverTestModel()
	const stride, cut, maxN = 50, 1234, 2000
	multiples := func(from, to int) []int {
		var ns []int
		for n := (from/stride + 1) * stride; n <= to; n += stride {
			ns = append(ns, n)
		}
		return ns
	}
	for name, alg := range solverAlgorithms(t, m) {
		t.Run(name, func(t *testing.T) {
			dense := alg.cold(maxN)
			check := func(what string, r *Result, want []int) {
				t.Helper()
				if fmt.Sprint(r.N) != fmt.Sprint(want) {
					t.Fatalf("%s: kept populations %v, want %v", what, r.N, want)
				}
				for i, n := range r.N {
					rowsEqual(t, r, i, dense, n-1)
					if cp := r.CheckpointAt(i); cp == nil || cp.N != n {
						t.Fatalf("%s: row %d's checkpoint %+v, want one at %d", what, i, cp, n)
					}
				}
			}

			ext := alg.fresh()
			defer ext.Release()
			if err := ext.Decimate(stride); err != nil {
				t.Fatal(err)
			}
			if err := ext.Run(cut); err != nil {
				t.Fatal(err)
			}
			if err := ext.Extend(maxN); err != nil {
				t.Fatal(err)
			}
			want := append(append(multiples(0, cut), cut), multiples(cut, maxN)...)
			check("Run then Extend", ext.Result(), want)

			src := alg.fresh()
			defer src.Release()
			if err := src.Run(cut); err != nil {
				t.Fatal(err)
			}
			cp, err := src.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			res := alg.fresh()
			defer res.Release()
			if err := res.ResumeFrom(cp); err != nil {
				t.Fatal(err)
			}
			if err := res.Decimate(stride); err != nil {
				t.Fatal(err)
			}
			if err := res.Run(maxN); err != nil {
				t.Fatal(err)
			}
			check("ResumeFrom", res.Result(), multiples(cut, maxN))
		})
	}
}

// rowsEqual fails unless row i of a and row j of b are bit-identical.
func rowsEqual(t *testing.T, a *Result, i int, b *Result, j int) {
	t.Helper()
	if a.N[i] != b.N[j] || a.X[i] != b.X[j] || a.R[i] != b.R[j] || a.Cycle[i] != b.Cycle[j] {
		t.Fatalf("n=%d: scalars differ from n=%d: X %v/%v R %v/%v", a.N[i], b.N[j], a.X[i], b.X[j], a.R[i], b.R[j])
	}
	for k := range a.StationNames {
		if a.QueueLenRow(i)[k] != b.QueueLenRow(j)[k] || a.UtilRow(i)[k] != b.UtilRow(j)[k] ||
			a.ResidenceRow(i)[k] != b.ResidenceRow(j)[k] || a.DemandsRow(i)[k] != b.DemandsRow(j)[k] {
			t.Fatalf("n=%d station %d metrics differ", a.N[i], k)
		}
	}
}

// TestDecimatedExtend grows a decimated trajectory across several Run calls
// and checks stored rows stay sorted, stride-aligned-or-final, and
// bit-identical to dense.
func TestDecimatedExtend(t *testing.T) {
	m := solverTestModel()
	algs := solverAlgorithms(t, m)
	alg := algs["exact"]
	dense := alg.cold(200)
	s := alg.fresh()
	defer s.Release()
	if err := s.Decimate(25); err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{40, 110, 110, 200} {
		if err := s.Run(target); err != nil {
			t.Fatal(err)
		}
		if s.N() != target && target >= s.N() {
			t.Fatalf("after Run(%d): N()=%d", target, s.N())
		}
	}
	res := s.Result()
	want := []int{25, 40, 50, 75, 100, 110, 125, 150, 175, 200}
	if len(res.N) != len(want) {
		t.Fatalf("stored populations %v, want %v", res.N, want)
	}
	for i, n := range want {
		if res.N[i] != n {
			t.Fatalf("stored populations %v, want %v", res.N, want)
		}
		if res.X[i] != dense.X[n-1] {
			t.Fatalf("n=%d: X %v vs dense %v", n, res.X[i], dense.X[n-1])
		}
		if cp := res.CheckpointAt(i); cp == nil || cp.N != n {
			t.Fatalf("row %d's checkpoint %+v, want one at %d", i, cp, n)
		}
	}
	// Population-aware lookups.
	if i := res.IndexOf(110); i < 0 || res.N[i] != 110 {
		t.Fatalf("IndexOf(110) = %d", i)
	}
	if i := res.IndexOf(111); i != -1 {
		t.Fatalf("IndexOf(111) = %d, want -1", i)
	}
	if _, _, _, err := res.At(150); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := res.At(151); err == nil {
		t.Fatal("At(151) on a decimated trajectory should fail")
	}
	// PrefixPop returns the stored rows ≤ n and reports SolvedN = n.
	view, err := res.PrefixPop(130)
	if err != nil {
		t.Fatal(err)
	}
	if view.SolvedN() != 130 || view.Len() != 7 || view.N[view.Len()-1] != 125 {
		t.Fatalf("PrefixPop(130): SolvedN=%d len=%d last=%d", view.SolvedN(), view.Len(), view.N[view.Len()-1])
	}
	if cp := view.CheckpointAt(view.Len() - 1); cp == nil || cp.N != 125 {
		t.Fatalf("view's last row rebuilds checkpoint %+v, want one at 125", cp)
	}
	if cp := view.CheckpointAt(view.Len()); cp != nil {
		t.Fatalf("view rebuilds a checkpoint past its rows: %+v", cp)
	}
	if _, err := res.PrefixPop(201); err == nil {
		t.Fatal("PrefixPop beyond SolvedN should fail")
	}
	if _, err := res.Prefix(100); err == nil {
		t.Fatal("dense Prefix of a decimated trajectory should fail")
	}
}

// TestDecimateGuards pins the misuse errors.
func TestDecimateGuards(t *testing.T) {
	m := solverTestModel()
	s, err := NewExactMVASolver(m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if err := s.Decimate(0); !errors.Is(err, ErrBadRun) {
		t.Fatalf("Decimate(0): %v", err)
	}
	if err := s.Decimate(1); err != nil {
		t.Fatalf("Decimate(1) should be a no-op: %v", err)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := s.Decimate(4); !errors.Is(err, ErrBadRun) {
		t.Fatalf("Decimate after Run: %v", err)
	}
	tr, err := NewMultiServerSolver(m, MultiServerOptions{TraceStation: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	if err := tr.Decimate(4); !errors.Is(err, ErrBadRun) {
		t.Fatalf("Decimate of tracing solver: %v", err)
	}
	// ResumeFrom guards: algorithm mismatch and non-fresh solver.
	src, err := NewExactMVASolver(m)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Release()
	if err := src.Run(30); err != nil {
		t.Fatal(err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := NewSchweitzerSolver(m, SchweitzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Release()
	if err := wrong.ResumeFrom(cp); !errors.Is(err, ErrBadRun) {
		t.Fatalf("ResumeFrom with wrong algorithm: %v", err)
	}
	if err := s.ResumeFrom(cp); !errors.Is(err, ErrBadRun) {
		t.Fatalf("ResumeFrom into a run solver: %v", err)
	}
}

// sameState reports whether checkpoint got equals want float bit for float
// bit and shape for shape.
func sameState(want, got *Checkpoint) bool {
	same := func(a, b []float64) bool {
		if len(a) != len(b) || (a == nil) != (b == nil) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	ok := got != nil && got.Algorithm == want.Algorithm && got.N == want.N &&
		math.Float64bits(got.X) == math.Float64bits(want.X) && same(got.Queue, want.Queue) &&
		len(got.Marginal) == len(want.Marginal) && (got.Marginal == nil) == (want.Marginal == nil)
	for k := 0; ok && k < len(want.Marginal); k++ {
		ok = same(got.Marginal[k], want.Marginal[k])
	}
	return ok
}

// requireSameState fails unless the rebuilt checkpoint got equals want, the
// live state.
func requireSameState(t *testing.T, what string, want, got *Checkpoint) {
	t.Helper()
	if !sameState(want, got) {
		t.Fatalf("%s: rebuilt state %+v, live state %+v", what, got, want)
	}
}

// TestCheckpointAtEqualsLiveState checks that the recursion state a
// decimated trajectory rebuilds at each stored row equals the live
// Solver.Checkpoint taken right after the row was stored: for a cold run, a
// chunk resumed with ResumeFrom, a PrefixPop view taken mid-run, and the
// frontier row a cancelled run keeps. The rebuilds run after the solvers
// are released and another solve has reused the pooled scratch.
func TestCheckpointAtEqualsLiveState(t *testing.T) {
	m := solverTestModel()
	const stride, maxN, seedN, viewN, cutN = 7, 150, 23, 66, 101
	for name, alg := range solverAlgorithms(t, m) {
		t.Run(name, func(t *testing.T) {
			// run drives s to population to one stride at a time, storing the
			// rows a single Run stores, and records the live state at each.
			run := func(s *Solver, to int, live map[int]*Checkpoint) {
				for n := s.N(); n < to; {
					n = min((n/stride+1)*stride, to)
					if err := s.Run(n); err != nil {
						t.Fatal(err)
					}
					cp, err := s.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					live[n] = cp
				}
			}
			check := func(what string, r *Result, live map[int]*Checkpoint) {
				t.Helper()
				if r.Len() == 0 {
					t.Fatalf("%s stores no rows", what)
				}
				for i, n := range r.N {
					want, ok := live[n]
					if !ok {
						t.Fatalf("%s: row %d holds population %d, which was never stored", what, i, n)
					}
					requireSameState(t, fmt.Sprintf("%s row %d (n=%d)", what, i, n), want, r.CheckpointAt(i))
				}
			}
			decimated := func() *Solver {
				s := alg.fresh()
				if err := s.Decimate(stride); err != nil {
					t.Fatal(err)
				}
				return s
			}

			coldLive := map[int]*Checkpoint{}
			cold := decimated()
			run(cold, viewN+4, coldLive)
			view, err := cold.Result().PrefixPop(viewN)
			if err != nil {
				t.Fatal(err)
			}
			run(cold, maxN, coldLive)
			cold.Release()

			src := alg.fresh()
			if err := src.Run(seedN); err != nil {
				t.Fatal(err)
			}
			seed, err := src.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			src.Release()
			chunk := alg.fresh()
			if err := chunk.ResumeFrom(seed); err != nil {
				t.Fatal(err)
			}
			if err := chunk.Decimate(stride); err != nil {
				t.Fatal(err)
			}
			chunkLive := map[int]*Checkpoint{}
			run(chunk, maxN, chunkLive)
			chunk.Release()

			cut := decimated()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cut.SetHooks(&SolveHooks{OnStep: func(n int, _ float64) {
				if n == cutN {
					cancel()
				}
			}})
			if err := cut.RunContext(ctx, maxN); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			frontier, err := cut.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			cut.Release()

			// Reuse the pooled scratch the released solvers returned.
			other := alg.fresh()
			if err := other.Run(maxN); err != nil {
				t.Fatal(err)
			}
			other.Release()

			check("cold", cold.Result(), coldLive)
			check("PrefixPop view", view, coldLive)
			check("resumed chunk", chunk.Result(), chunkLive)
			if got := chunk.Result().CheckpointAt(-1); got != nil {
				t.Fatalf("CheckpointAt(-1) = %+v, want nil", got)
			}
			res := cut.Result()
			requireSameState(t, "cancelled frontier", frontier, res.CheckpointAt(res.Len()-1))
			if alg.cold(10).CheckpointAt(0) != nil {
				t.Fatal("a dense trajectory rebuilt a checkpoint")
			}
		})
	}
}
