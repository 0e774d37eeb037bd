// Package interp provides a uniform interface over the interpolation
// back-ends (linear, cubic-spline variants, smoothing spline, PCHIP, Akima,
// barycentric-Chebyshev) so that higher layers — in particular the MVASD
// demand provider — can switch interpolation schemes by configuration, as
// the paper does when comparing spline choices and sample placements.
package interp

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/chebyshev"
	"repro/internal/spline"
)

// Method identifies an interpolation scheme.
type Method string

const (
	// Linear joins samples with straight lines.
	Linear Method = "linear"
	// CubicNatural is the natural cubic spline (S''=0 at the ends).
	CubicNatural Method = "cubic-natural"
	// CubicNotAKnot is the not-a-knot cubic spline (Scilab/MATLAB default,
	// what the paper's interp() call uses).
	CubicNotAKnot Method = "cubic-not-a-knot"
	// PCHIP is the monotonicity-preserving piecewise cubic.
	PCHIP Method = "pchip"
	// Akima is Akima's reduced-overshoot interpolant.
	Akima Method = "akima"
	// Smoothing is the Reinsch smoothing spline; its λ is set via Options.
	Smoothing Method = "smoothing"
	// Polynomial is global barycentric Lagrange interpolation — only
	// sensible for points placed at Chebyshev nodes.
	Polynomial Method = "polynomial"
)

// Methods lists every supported interpolation method.
func Methods() []Method {
	return []Method{Linear, CubicNatural, CubicNotAKnot, PCHIP, Akima, Smoothing, Polynomial}
}

// ErrUnknownMethod is returned by New for unrecognised method names.
var ErrUnknownMethod = errors.New("interp: unknown method")

// Interpolator evaluates a fitted one-dimensional function.
type Interpolator interface {
	// Eval returns the interpolated value at x, applying the scheme's
	// extrapolation rule outside the sampled range.
	Eval(x float64) float64
	// Domain returns the sampled abscissa range [lo, hi].
	Domain() (lo, hi float64)
}

// Options configures interpolator construction.
type Options struct {
	// Lambda is the roughness penalty for Smoothing (default 0: interpolate).
	Lambda float64
	// Extrapolation selects out-of-range behaviour for the spline-backed
	// methods. The default, spline.ExtrapConstant, is the paper's eq. 14
	// pegging and is what MVASD requires.
	Extrapolation spline.Extrapolation
}

// New fits an interpolator of the given method through (xs, ys). The points
// are copied and sorted by x; duplicate abscissae are rejected by the
// underlying constructors.
func New(method Method, xs, ys []float64, opts Options) (Interpolator, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("interp: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	sx, sy := sortedCopy(xs, ys)
	switch method {
	case Polynomial:
		p, err := chebyshev.NewInterpolant(sx, sy)
		if err != nil {
			return nil, err
		}
		return &polyAdapter{p: p, lo: sx[0], hi: sx[len(sx)-1]}, nil
	case Linear, CubicNatural, CubicNotAKnot, PCHIP, Akima, Smoothing:
		var (
			c   *spline.Cubic
			err error
		)
		switch method {
		case Linear:
			c, err = spline.NewLinear(sx, sy)
		case CubicNatural:
			c, err = spline.NewNatural(sx, sy)
		case CubicNotAKnot:
			c, err = spline.NewNotAKnot(sx, sy)
		case PCHIP:
			c, err = spline.NewPCHIP(sx, sy)
		case Akima:
			c, err = spline.NewAkima(sx, sy)
		case Smoothing:
			c, err = spline.NewSmoothing(sx, sy, opts.Lambda)
		}
		if err != nil {
			return nil, err
		}
		c.SetExtrapolation(opts.Extrapolation)
		return c, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownMethod, method)
	}
}

// polyAdapter wraps a barycentric interpolant with constant-peg
// extrapolation so global polynomials obey the same out-of-range contract as
// the spline methods (global polynomials explode when extrapolated).
type polyAdapter struct {
	p      *chebyshev.Interpolant
	lo, hi float64
}

func (a *polyAdapter) Eval(x float64) float64 {
	if x < a.lo {
		x = a.lo
	}
	if x > a.hi {
		x = a.hi
	}
	return a.p.Eval(x)
}

func (a *polyAdapter) Domain() (float64, float64) { return a.lo, a.hi }

func sortedCopy(xs, ys []float64) ([]float64, []float64) {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	sx := make([]float64, len(pts))
	sy := make([]float64, len(pts))
	for i, p := range pts {
		sx[i], sy[i] = p.x, p.y
	}
	return sx, sy
}

// Curve is a sampled one-dimensional function together with a fitted
// interpolator: the container MVASD uses for per-station service-demand
// arrays (samples at a few concurrency levels, continuous in between).
type Curve struct {
	X, Y   []float64
	Method Method
	interp Interpolator
}

// NewCurve fits a Curve through the samples with the given method. A
// single-sample curve is allowed and evaluates as a constant.
func NewCurve(method Method, xs, ys []float64, opts Options) (*Curve, error) {
	if len(xs) == 0 {
		return nil, errors.New("interp: empty curve")
	}
	sx, sy := sortedCopy(xs, ys)
	c := &Curve{X: sx, Y: sy, Method: method}
	if len(sx) == 1 {
		return c, nil // constant curve; no interpolator needed
	}
	ip, err := New(method, sx, sy, opts)
	if err != nil {
		return nil, err
	}
	c.interp = ip
	return c, nil
}

// Eval evaluates the curve at x.
func (c *Curve) Eval(x float64) float64 {
	if c.interp == nil {
		return c.Y[0]
	}
	return c.interp.Eval(x)
}

// Domain returns the sampled range (equal endpoints for a constant curve).
func (c *Curve) Domain() (float64, float64) {
	return c.X[0], c.X[len(c.X)-1]
}

// PeggedAbove reports whether Eval returns one value for every x above the
// last sample hi, the paper's eq.-14 pegging: true for a single-sample
// curve, a polynomial (its adapter clamps) and a spline with
// spline.ExtrapConstant; false for any other extrapolation rule.
func (c *Curve) PeggedAbove() (hi float64, ok bool) {
	hi = c.X[len(c.X)-1]
	switch ip := c.interp.(type) {
	case nil, *polyAdapter:
		return hi, true
	case *spline.Cubic:
		return hi, ip.Extrapolation() == spline.ExtrapConstant
	}
	return hi, false
}

// Len returns the number of samples.
func (c *Curve) Len() int { return len(c.X) }

// Table evaluates the curve on each of the given abscissae, the "array of
// service demands generated for station i with increasing concurrency"
// (SSⁿ in the paper's notation) when xs = 1..N.
func (c *Curve) Table(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = c.Eval(x)
	}
	return out
}
