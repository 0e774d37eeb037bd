package core

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/queueing"
	"repro/internal/spline"
)

// steadyModel has two multi-server stations, so pegged demands also reach
// the closed-form memo.
func steadyModel() *queueing.Model {
	return &queueing.Model{
		Name:      "steady",
		ThinkTime: 2,
		Stations: []queueing.Station{
			{Name: "web/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: 0.012},
			{Name: "db/cpu", Kind: queueing.CPU, Servers: 2, Visits: 1, ServiceTime: 0.009},
			{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 2, ServiceTime: 0.003},
			{Name: "lan", Kind: queueing.Delay, Servers: 1, Visits: 1, ServiceTime: 0.004},
		},
	}
}

// declining samples a demand that falls from d with concurrency, at the
// given abscissae.
func declining(d float64, at ...float64) DemandSamples {
	s := DemandSamples{At: at}
	for i := range at {
		s.Demands = append(s.Demands, d*(1-0.2*float64(i)/float64(len(at))))
	}
	return s
}

// TestSteadyDemandsBitIdentical runs MVASD through CurveDemands, which
// reuses its pegged demands from the first population past every station's
// last sample, and through a FuncDemands twin that evaluates the same
// curves at every population, and requires the same bits in every
// geometry: dense, decimated, a Run/Extend split on either side of the
// steady population, and a resume from a checkpoint past it.
func TestSteadyDemandsBitIdentical(t *testing.T) {
	m := steadyModel()
	const maxN = 480
	cases := []struct {
		name    string
		method  interp.Method
		opts    interp.Options
		samples []DemandSamples
		steady  int // the population the shortcut starts at; 0 for never
	}{
		{"different-last-knots", interp.CubicNotAKnot, interp.Options{}, []DemandSamples{
			declining(0.012, 1, 10, 25, 40),
			declining(0.009, 1, 30, 60.25, 120.5),
			declining(0.006, 1, 20, 45, 75),
			declining(0.004, 1, 60),
		}, 121},
		{"extrap-linear", interp.CubicNatural, interp.Options{Extrapolation: spline.ExtrapLinear}, []DemandSamples{
			declining(0.012, 1, 10, 25, 40),
			declining(0.009, 1, 30, 60.25, 120.5),
			declining(0.006, 1, 20, 45, 75),
			declining(0.004, 1, 60),
		}, 0},
		{"single-sample", interp.CubicNatural, interp.Options{}, []DemandSamples{
			declining(0.012, 30),
			declining(0.009, 1, 30, 60, 90.5),
			declining(0.006, 1, 45),
			declining(0.004, 70),
		}, 91},
		{"polynomial", interp.Polynomial, interp.Options{}, []DemandSamples{
			declining(0.012, 1, 20, 40, 60, 80.3),
			declining(0.009, 1, 20, 40, 60, 80.3),
			declining(0.006, 2, 25, 50),
			declining(0.004, 1, 33.5),
		}, 81},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cd, err := NewCurveDemands(c.method, c.samples, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			twin := FuncDemands{K: cd.Stations(), F: func(k, n int) float64 { return cd.Curve(k).Eval(float64(n)) }}
			at := c.steady // where the geometries split and resume
			if at == 0 {
				at = 121 // past every last knot, though never steady
			}
			geometries := []struct {
				name string
				run  func(s *Solver, dm DemandModel) error
			}{
				{"dense", func(s *Solver, _ DemandModel) error { return s.Run(maxN) }},
				{"decimated", func(s *Solver, _ DemandModel) error {
					if err := s.Decimate(7); err != nil {
						return err
					}
					return s.Run(maxN)
				}},
				{"split-before", func(s *Solver, _ DemandModel) error {
					if err := s.Run(at - 1); err != nil {
						return err
					}
					return s.Extend(maxN)
				}},
				{"split-after", func(s *Solver, _ DemandModel) error {
					if err := s.Run(at + 1); err != nil {
						return err
					}
					return s.Extend(maxN)
				}},
				{"decimated-split", func(s *Solver, _ DemandModel) error {
					if err := s.Decimate(7); err != nil {
						return err
					}
					if err := s.Run(at - 2); err != nil {
						return err
					}
					return s.Extend(maxN)
				}},
				{"resume-past-steady", func(s *Solver, dm DemandModel) error {
					src, err := NewMVASDSolver(m, dm, MVASDOptions{})
					if err != nil {
						return err
					}
					defer src.Release()
					if err := src.Run(at + 5); err != nil {
						return err
					}
					cp, err := src.Checkpoint()
					if err != nil {
						return err
					}
					if err := s.ResumeFrom(cp); err != nil {
						return err
					}
					return s.Run(maxN)
				}},
			}
			for _, g := range geometries {
				t.Run(g.name, func(t *testing.T) {
					var got [2]*Solver
					for i, dm := range []DemandModel{cd, twin} {
						s, err := NewMVASDSolver(m, dm, MVASDOptions{})
						if err != nil {
							t.Fatal(err)
						}
						defer s.Release()
						if err := g.run(s, dm); err != nil {
							t.Fatal(err)
						}
						got[i] = s
					}
					requireBitIdentical(t, got[1].Result(), got[0].Result())
					want, err := got[1].Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					cp, err := got[0].Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					requireSameState(t, "final state", want, cp)
					if pegged := got[0].alg.(*mvasdStepper).pegged; pegged != (c.steady > 0) {
						t.Fatalf("demands pegged = %v at N=%d, want %v", pegged, maxN, c.steady > 0)
					}
				})
			}
			if got := cd.steady; got != c.steady {
				t.Fatalf("steady population %d, want %d", got, c.steady)
			}
		})
	}
}
