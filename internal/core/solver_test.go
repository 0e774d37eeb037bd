package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/queueing"
)

func solverTestModel() *queueing.Model {
	return &queueing.Model{
		Name:      "solver-test",
		ThinkTime: 1,
		Stations: []queueing.Station{
			{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.02},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 3, ServiceTime: 0.005},
			{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.004},
		},
	}
}

// solverAlgorithms enumerates every algorithm behind the Solver engine, each
// with a cold one-shot reference solve and a fresh resumable solver.
func solverAlgorithms(t *testing.T, m *queueing.Model) map[string]struct {
	cold  func(maxN int) *Result
	fresh func() *Solver
} {
	t.Helper()
	dm := ConstantDemands(m.Demands())
	base := m.Demands()
	tdm := throughputFunc{k: len(base), f: func(station, n int, x float64) float64 {
		return base[station] / (1 + 0.02*x)
	}}
	must := func(res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mustS := func(s *Solver, err error) *Solver {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]struct {
		cold  func(maxN int) *Result
		fresh func() *Solver
	}{
		"exact": {
			cold:  func(n int) *Result { return must(ExactMVA(m, n)) },
			fresh: func() *Solver { return mustS(NewExactMVASolver(m)) },
		},
		"schweitzer": {
			cold:  func(n int) *Result { return must(Schweitzer(m, n, SchweitzerOptions{})) },
			fresh: func() *Solver { return mustS(NewSchweitzerSolver(m, SchweitzerOptions{})) },
		},
		"multiserver": {
			cold: func(n int) *Result {
				res, _, err := ExactMVAMultiServer(m, n, MultiServerOptions{TraceStation: -1})
				return must(res, err)
			},
			fresh: func() *Solver { return mustS(NewMultiServerSolver(m, MultiServerOptions{TraceStation: -1})) },
		},
		"multiserver-verbatim": {
			cold: func(n int) *Result {
				res, _, err := ExactMVAMultiServer(m, n, MultiServerOptions{Verbatim: true, TraceStation: -1})
				return must(res, err)
			},
			fresh: func() *Solver {
				return mustS(NewMultiServerSolver(m, MultiServerOptions{Verbatim: true, TraceStation: -1}))
			},
		},
		"mvasd": {
			cold:  func(n int) *Result { return must(MVASD(m, n, dm, MVASDOptions{})) },
			fresh: func() *Solver { return mustS(NewMVASDSolver(m, dm, MVASDOptions{})) },
		},
		"mvasd-vs-throughput": {
			cold:  func(n int) *Result { return must(MVASD(m, n, tdm, MVASDOptions{})) },
			fresh: func() *Solver { return mustS(NewMVASDSolver(m, tdm, MVASDOptions{})) },
		},
		"mvasd-1s": {
			cold:  func(n int) *Result { return must(MVASDSingleServer(m, n, dm, MVASDOptions{})) },
			fresh: func() *Solver { return mustS(NewMVASDSingleServerSolver(m, dm, MVASDOptions{})) },
		},
		"load-dependent": {
			cold:  func(n int) *Result { return must(LoadDependentMVA(m, n, nil)) },
			fresh: func() *Solver { return mustS(NewLoadDependentSolver(m, nil)) },
		},
	}
}

// requireBitIdentical fails unless a and b hold exactly the same trajectory
// (float comparison is ==, not approximate: prefix reuse must not perturb a
// single bit).
func requireBitIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Algorithm != b.Algorithm {
		t.Fatalf("algorithm %q vs %q", a.Algorithm, b.Algorithm)
	}
	if len(a.N) != len(b.N) {
		t.Fatalf("length %d vs %d", len(a.N), len(b.N))
	}
	for i := range a.N {
		if a.N[i] != b.N[i] || a.X[i] != b.X[i] || a.R[i] != b.R[i] || a.Cycle[i] != b.Cycle[i] {
			t.Fatalf("scalar row %d differs: N %d/%d X %v/%v R %v/%v Cycle %v/%v",
				i, a.N[i], b.N[i], a.X[i], b.X[i], a.R[i], b.R[i], a.Cycle[i], b.Cycle[i])
		}
		for k := range a.QueueLenRow(i) {
			if a.QueueLenRow(i)[k] != b.QueueLenRow(i)[k] || a.Util[i][k] != b.Util[i][k] ||
				a.ResidenceRow(i)[k] != b.ResidenceRow(i)[k] || a.DemandsRow(i)[k] != b.DemandsRow(i)[k] {
				t.Fatalf("station row %d/%d differs", i, k)
			}
		}
	}
}

// TestSolverExtendBitIdentical is the engine's core contract: running to an
// intermediate population and extending (twice, crossing a capacity growth)
// yields exactly the trajectory of a cold solve at the final population.
func TestSolverExtendBitIdentical(t *testing.T) {
	m := solverTestModel()
	for name, alg := range solverAlgorithms(t, m) {
		t.Run(name, func(t *testing.T) {
			const final = 60
			want := alg.cold(final)
			s := alg.fresh()
			defer s.Release()
			if err := s.Run(17); err != nil {
				t.Fatal(err)
			}
			if got := s.N(); got != 17 {
				t.Fatalf("N() = %d after Run(17)", got)
			}
			if err := s.Extend(41); err != nil {
				t.Fatal(err)
			}
			if err := s.Extend(final); err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, want, s.Result())
		})
	}
}

// TestSolverPrefixView: a prefix snapshot matches a cold solve at that
// population and is immune to later extensions of the parent solver.
func TestSolverPrefixView(t *testing.T) {
	m := solverTestModel()
	for name, alg := range solverAlgorithms(t, m) {
		t.Run(name, func(t *testing.T) {
			s := alg.fresh()
			defer s.Release()
			if err := s.Run(20); err != nil {
				t.Fatal(err)
			}
			pre, err := s.Result().Prefix(20)
			if err != nil {
				t.Fatal(err)
			}
			// Extend far enough to force at least one geometric growth.
			if err := s.Extend(300); err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, alg.cold(20), pre)
			if _, err := s.Result().Prefix(0); err == nil {
				t.Error("Prefix(0) succeeded")
			}
			if _, err := s.Result().Prefix(301); err == nil {
				t.Error("Prefix beyond solved range succeeded")
			}
		})
	}
}

// TestPrefixImmuneToConcurrentExtend drives the service's publication
// pattern under the race detector: readers iterate a published prefix while
// the owner extends the same solver through multiple growths.
func TestPrefixImmuneToConcurrentExtend(t *testing.T) {
	m := solverTestModel()
	s, err := NewExactMVASolver(m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	pre, err := s.Result().Prefix(50)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			sum := 0.0
			for i := range pre.N {
				sum += pre.X[i] + pre.QueueLenRow(i)[0]
			}
			_ = sum
		}
	}()
	for n := 100; n <= 3000; n += 100 {
		if err := s.Extend(n); err != nil {
			t.Fatal(err)
		}
	}
	close(stopRead)
	wg.Wait()
	if got := pre.X[49]; got != s.Result().X[49] {
		t.Fatalf("prefix row diverged: %v vs %v", got, s.Result().X[49])
	}
}

func TestSolverRunBounds(t *testing.T) {
	m := solverTestModel()
	s, err := NewExactMVASolver(m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if err := s.Run(0); !errors.Is(err, ErrBadRun) {
		t.Fatalf("Run(0) err = %v", err)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	// Running to a smaller or equal population is a no-op, not a re-solve.
	if err := s.Run(5); err != nil || s.N() != 10 {
		t.Fatalf("Run(5) after Run(10): err=%v N=%d", err, s.N())
	}
	s.Release()
	if err := s.Run(20); !errors.Is(err, ErrBadRun) {
		t.Fatalf("Run after Release err = %v", err)
	}
}

// TestExactMVAStepAllocs is the hot-path regression guard: inside reserved
// capacity, an exact-MVA population step must not allocate.
func TestExactMVAStepAllocs(t *testing.T) {
	m := solverTestModel()
	s, err := NewExactMVASolver(m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	const runs = 200
	// AllocsPerRun invokes the body runs+1 times (one warm-up call).
	s.Reserve(runs + 2)
	n := 0
	allocs := testing.AllocsPerRun(runs, func() {
		n++
		if err := s.Extend(n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("exact-MVA step allocates %.2f objects/op, want 0", allocs)
	}
}
