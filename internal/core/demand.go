package core

import (
	"errors"
	"fmt"

	"repro/internal/interp"
)

// DemandModel supplies per-station service demands to MVASD at each
// population step. Implementations may depend on the concurrency n (the
// paper's primary mode, Section 6), on the current throughput estimate x
// (the Section-7 variant), or on neither (constant demands).
type DemandModel interface {
	// DemandAt returns D_k for station k at population n with current
	// throughput estimate x (transactions/second).
	DemandAt(station, n int, x float64) float64
	// DependsOnThroughput reports whether demands vary with x, in which
	// case the solver must run a per-step fixed-point iteration.
	DependsOnThroughput() bool
	// Stations returns the number of stations covered.
	Stations() int
}

// ErrDemandModel is wrapped by demand-model constructors for invalid input.
var ErrDemandModel = errors.New("core: invalid demand model")

// ConstantDemands is the trivial DemandModel with fixed per-station demands
// (what Algorithm 2 uses implicitly).
type ConstantDemands []float64

// DemandAt returns the fixed demand for the station.
func (c ConstantDemands) DemandAt(station, _ int, _ float64) float64 { return c[station] }

// DependsOnThroughput is always false for constants.
func (ConstantDemands) DependsOnThroughput() bool { return false }

// Stations returns the station count.
func (c ConstantDemands) Stations() int { return len(c) }

// DemandSamples is one station's measured service demands: Demands[i] was
// measured at concurrency (or throughput) At[i]. This is the paper's
// {S_k^{i_1}, …, S_k^{i_M}} input array.
type DemandSamples struct {
	// At are the abscissae the demands were measured at (concurrency
	// levels for the Section-6 mode, throughputs for the Section-7 mode).
	At []float64
	// Demands are the corresponding measured service demands in seconds.
	Demands []float64
}

// CurveDemands interpolates per-station demand samples against concurrency:
// the paper's SS_k^n = h(a_k, b_k, n) with h a spline interpolator pegged at
// the boundaries (eq. 14).
type CurveDemands struct {
	curves []*interp.Curve
	// steady is the first population from which DemandAt(k, n, ·) equals
	// DemandAt(k, steady, ·) bit for bit for every station and every
	// larger n, because n is past every curve's pegged last sample; 0 when
	// some curve is not pegged. MVASD evaluates the demands there once and
	// reuses them.
	steady int
}

// maxSteadyKnot bounds the last knot a steady population is computed from,
// so floor(hi)+1 always fits an int; a solve never reaches a population
// that large.
const maxSteadyKnot = 1 << 52

// steadyPopulation returns the largest floor(hi)+1 over the curves' last
// knots hi (at least 1), the first population past every sample, when
// every curve is pegged above its last knot; 0 when any is not.
func steadyPopulation(curves []*interp.Curve) int {
	steady := 1
	for _, c := range curves {
		hi, ok := c.PeggedAbove()
		if !ok || !(hi < maxSteadyKnot) {
			return 0
		}
		if hi >= 0 {
			steady = max(steady, int(hi)+1) // int truncates: floor for hi ≥ 0
		}
	}
	return steady
}

// NewCurveDemands fits one interpolation curve per station. Method selects
// the interpolation scheme (the paper uses cubic splines; CubicNotAKnot
// matches Scilab's interp()).
func NewCurveDemands(method interp.Method, samples []DemandSamples, opts interp.Options) (*CurveDemands, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("%w: no stations", ErrDemandModel)
	}
	cd := &CurveDemands{curves: make([]*interp.Curve, len(samples))}
	for k, s := range samples {
		if len(s.At) != len(s.Demands) || len(s.At) == 0 {
			return nil, fmt.Errorf("%w: station %d has %d abscissae and %d demands",
				ErrDemandModel, k, len(s.At), len(s.Demands))
		}
		c, err := interp.NewCurve(method, s.At, s.Demands, opts)
		if err != nil {
			return nil, fmt.Errorf("core: station %d: %w", k, err)
		}
		cd.curves[k] = c
	}
	cd.steady = steadyPopulation(cd.curves)
	return cd, nil
}

// DemandAt evaluates station k's curve at concurrency n.
func (c *CurveDemands) DemandAt(station, n int, _ float64) float64 {
	return c.curves[station].Eval(float64(n))
}

// DependsOnThroughput is false: this is the concurrency-indexed mode.
func (*CurveDemands) DependsOnThroughput() bool { return false }

// Stations returns the station count.
func (c *CurveDemands) Stations() int { return len(c.curves) }

// Curve exposes station k's fitted curve (for plotting, e.g. Fig. 10).
func (c *CurveDemands) Curve(station int) *interp.Curve { return c.curves[station] }

// ThroughputDemands interpolates per-station demand samples against system
// throughput — the Section-7 variant ("service demand vs. throughput rather
// than against concurrency"). Because MVA computes X from the demands, each
// population step becomes a fixed point that MVASD solves iteratively.
type ThroughputDemands struct {
	curves []*interp.Curve
}

// NewThroughputDemands fits one demand-vs-throughput curve per station.
func NewThroughputDemands(method interp.Method, samples []DemandSamples, opts interp.Options) (*ThroughputDemands, error) {
	cd, err := NewCurveDemands(method, samples, opts)
	if err != nil {
		return nil, err
	}
	return &ThroughputDemands{curves: cd.curves}, nil
}

// DemandAt evaluates station k's curve at throughput x.
func (c *ThroughputDemands) DemandAt(station, _ int, x float64) float64 {
	return c.curves[station].Eval(x)
}

// DependsOnThroughput is true: the solver must iterate each step.
func (*ThroughputDemands) DependsOnThroughput() bool { return true }

// Stations returns the station count.
func (c *ThroughputDemands) Stations() int { return len(c.curves) }

// Curve exposes station k's fitted curve (for plotting, e.g. Fig. 11).
func (c *ThroughputDemands) Curve(station int) *interp.Curve { return c.curves[station] }

// FuncDemands adapts an arbitrary function of (station, n) to a DemandModel;
// handy in tests and for analytically specified demand laws.
type FuncDemands struct {
	K int
	F func(station, n int) float64
}

// DemandAt evaluates the wrapped function.
func (f FuncDemands) DemandAt(station, n int, _ float64) float64 { return f.F(station, n) }

// DependsOnThroughput is false for concurrency-indexed functions.
func (FuncDemands) DependsOnThroughput() bool { return false }

// Stations returns the declared station count.
func (f FuncDemands) Stations() int { return f.K }
