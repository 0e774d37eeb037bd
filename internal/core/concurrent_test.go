package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/interp"
)

// TestConcurrentSolves runs every solver from many goroutines over shared
// queueing.Model and DemandModel values. Run under -race (as CI does), it
// proves the solvers keep all mutable recursion state private and are safe to
// share behind a server: the solverd service solves the same *queueing.Model
// from concurrent requests.
func TestConcurrentSolves(t *testing.T) {
	m := ctxTestModel() // shared by every goroutine, never copied
	samples := make([]DemandSamples, len(m.Stations))
	for k, st := range m.Stations {
		d := st.Demand()
		samples[k] = DemandSamples{
			At:      []float64{1, 50, 100, 200},
			Demands: []float64{d, 0.9 * d, 0.85 * d, 0.8 * d},
		}
	}
	curve, err := NewCurveDemands(interp.CubicNotAKnot, samples, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	constant := ConstantDemands(m.Demands())

	const goroutines = 16
	const maxN = 200
	type outcome struct {
		x float64
		r float64
	}
	solvers := map[string]func() (*Result, error){
		"exact":      func() (*Result, error) { return ExactMVA(m, maxN) },
		"schweitzer": func() (*Result, error) { return Schweitzer(m, maxN, SchweitzerOptions{}) },
		"multiserver": func() (*Result, error) {
			res, _, err := ExactMVAMultiServer(m, maxN, MultiServerOptions{TraceStation: -1})
			return res, err
		},
		"mvasd":          func() (*Result, error) { return MVASD(m, maxN, curve, MVASDOptions{}) },
		"mvasd-constant": func() (*Result, error) { return MVASD(m, maxN, constant, MVASDOptions{}) },
		"mvasd-1s":       func() (*Result, error) { return MVASDSingleServer(m, maxN, curve, MVASDOptions{}) },
	}
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			results := make([]outcome, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					res, err := solve()
					if err != nil {
						errs[g] = err
						return
					}
					results[g] = outcome{x: res.X[maxN-1], r: res.R[maxN-1]}
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				if results[g] != results[0] {
					t.Fatalf("goroutine %d diverged: %+v vs %+v", g, results[g], results[0])
				}
			}
		})
	}
	// The model must come through untouched.
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDecimatedViewsReadWhileExtending rebuilds states and recovers rows
// from PrefixPop views on several goroutines while the solver that produced
// them keeps extending, the way the server answers prefix hits beside an
// in-place extend. Run under -race, it shows that storing a row's history
// never writes what an earlier view reads; the views must also agree with a
// solver that ran the same targets alone.
func TestDecimatedViewsReadWhileExtending(t *testing.T) {
	m := solverTestModel()
	const stride, step, maxN, readers = 9, 25, 400, 4
	builders := map[string]func() (*Solver, error){
		"multiserver": func() (*Solver, error) {
			return NewMultiServerSolver(m, MultiServerOptions{TraceStation: -1})
		},
		"multiserver-verbatim": func() (*Solver, error) {
			return NewMultiServerSolver(m, MultiServerOptions{Verbatim: true, TraceStation: -1})
		},
		"load-dependent": func() (*Solver, error) { return NewLoadDependentSolver(m, nil) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			// extend runs a decimated solver to maxN in step-wide runs,
			// handing out the view at each run's end.
			extend := func(publish func(*Result)) *Solver {
				s, err := build()
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Decimate(stride); err != nil {
					t.Fatal(err)
				}
				for n := step; n <= maxN; n += step {
					if err := s.Run(n); err != nil {
						t.Fatal(err)
					}
					v, err := s.Result().PrefixPop(n)
					if err != nil {
						t.Fatal(err)
					}
					publish(v)
				}
				return s
			}
			ref := extend(func(*Result) {})
			defer ref.Release()
			want := ref.Result()

			check := func(v *Result) error {
				for i, n := range v.N {
					if got := v.CheckpointAt(i); !sameState(want.CheckpointAt(want.IndexOf(n)), got) {
						return fmt.Errorf("view to %d: row %d (n=%d) rebuilt %+v", v.SolvedN(), i, n, got)
					}
				}
				n := v.SolvedN() - 1
				got, err := v.Recover([]int{n}, build)
				if err != nil {
					return err
				}
				exp, err := want.Recover([]int{n}, build)
				if err != nil {
					return err
				}
				if got[0].X != exp[0].X || got[0].R != exp[0].R {
					return fmt.Errorf("view to %d: recovered n=%d X=%v R=%v, want X=%v R=%v",
						v.SolvedN(), n, got[0].X, got[0].R, exp[0].X, exp[0].R)
				}
				return nil
			}
			views := make(chan *Result)
			errs := make([]error, readers)
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for v := range views {
						if err := check(v); err != nil && errs[g] == nil {
							errs[g] = err
						}
					}
				}(g)
			}
			s := extend(func(v *Result) { views <- v })
			close(views)
			wg.Wait()
			s.Release()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}
