// Package spline implements the piecewise-cubic interpolation machinery the
// paper relies on (its Section 6 uses Scilab's interp(); Section 7 uses
// smoothing splines, eq. 12).
//
// The central type is Cubic, a C¹/C² piecewise cubic polynomial over strictly
// increasing knots. Constructors build the classic interpolating variants
// (natural, clamped, not-a-knot), shape-preserving variants (PCHIP, Akima)
// and the Reinsch smoothing spline with roughness penalty λ. Evaluation
// provides the value and the first three derivatives, mirroring eq. 13 of
// the paper (yq = h(xq), yq1 = h'(xq), yq2 = h”(xq), yq3 = h”'(xq)).
//
// Extrapolation outside the sampled range defaults to the paper's eq. 14:
// the value is pegged to the boundary ordinate (constant extrapolation),
// which is what MVASD uses when the MVA recursion asks for service demands
// beyond the last measured concurrency.
package spline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Extrapolation selects the behaviour of a Cubic outside [x₀, x_{n−1}].
type Extrapolation int

const (
	// ExtrapConstant pegs values to the boundary ordinates, per eq. 14 of
	// the paper: x < x₁ → y₁, x > x_n → y_n. Derivatives are zero outside.
	ExtrapConstant Extrapolation = iota
	// ExtrapLinear continues with the boundary slope.
	ExtrapLinear
	// ExtrapNatural evaluates the boundary cubic polynomial unchanged.
	ExtrapNatural
)

func (e Extrapolation) String() string {
	switch e {
	case ExtrapConstant:
		return "constant"
	case ExtrapLinear:
		return "linear"
	case ExtrapNatural:
		return "natural"
	default:
		return fmt.Sprintf("Extrapolation(%d)", int(e))
	}
}

// ErrBadKnots is returned when knot abscissae are not strictly increasing or
// there are too few points for the requested construction.
var ErrBadKnots = errors.New("spline: knots must be strictly increasing with enough points")

// Cubic is a piecewise cubic polynomial. On interval i (between knot i and
// knot i+1) it evaluates
//
//	S(x) = a[i] + b[i]·t + c[i]·t² + d[i]·t³,  t = x − xs[i].
type Cubic struct {
	xs         []float64
	a, b, c, d []float64 // len = len(xs)-1 each
	extrap     Extrapolation
	// end is S(x_{n−1}) from the last segment, the constant extrapolant
	// above the range: MVASD solves run far past the sampled range, so
	// EvalAll reads it instead of re-evaluating the segment every step.
	end float64
}

// NewNatural constructs the natural cubic interpolating spline through
// (xs, ys): S”=0 at both ends. Needs at least 2 points (2 points degrade
// gracefully to the connecting line).
func NewNatural(xs, ys []float64) (*Cubic, error) {
	m, err := naturalSecondDerivs(xs, ys)
	if err != nil {
		return nil, err
	}
	return fromSecondDerivs(xs, ys, m), nil
}

// NewClamped constructs the cubic interpolating spline with prescribed end
// slopes S'(x₀) = startSlope and S'(x_{n−1}) = endSlope.
func NewClamped(xs, ys []float64, startSlope, endSlope float64) (*Cubic, error) {
	if err := checkKnots(xs, ys, 2); err != nil {
		return nil, err
	}
	n := len(xs)
	if n == 2 {
		// A single cubic with both slopes prescribed (Hermite segment).
		return NewHermite(xs, ys, []float64{startSlope, endSlope})
	}
	sub := make([]float64, n)
	diag := make([]float64, n)
	sup := make([]float64, n)
	rhs := make([]float64, n)
	h := make([]float64, n-1)
	for i := range h {
		h[i] = xs[i+1] - xs[i]
	}
	diag[0] = h[0] / 3
	sup[0] = h[0] / 6
	rhs[0] = (ys[1]-ys[0])/h[0] - startSlope
	for i := 1; i < n-1; i++ {
		sub[i] = h[i-1] / 6
		diag[i] = (h[i-1] + h[i]) / 3
		sup[i] = h[i] / 6
		rhs[i] = (ys[i+1]-ys[i])/h[i] - (ys[i]-ys[i-1])/h[i-1]
	}
	sub[n-1] = h[n-2] / 6
	diag[n-1] = h[n-2] / 3
	rhs[n-1] = endSlope - (ys[n-1]-ys[n-2])/h[n-2]
	m, err := numeric.SolveTridiagonal(sub, diag, sup, rhs)
	if err != nil {
		return nil, fmt.Errorf("spline: clamped system: %w", err)
	}
	return fromSecondDerivs(xs, ys, m), nil
}

// NewNotAKnot constructs the not-a-knot cubic interpolating spline (the
// default of MATLAB/Scilab interp with "not_a_knot"): the third derivative is
// continuous across the second and penultimate knots, so the first two and
// last two intervals each share one cubic. Requires at least 4 points; with
// 3 points the unique parabola through them is returned, with 2 the line.
func NewNotAKnot(xs, ys []float64) (*Cubic, error) {
	if err := checkKnots(xs, ys, 2); err != nil {
		return nil, err
	}
	n := len(xs)
	switch n {
	case 2:
		return NewNatural(xs, ys)
	case 3:
		return parabolaThrough(xs, ys)
	}
	h := make([]float64, n-1)
	for i := range h {
		h[i] = xs[i+1] - xs[i]
	}
	div := func(i int) float64 { return (ys[i+1] - ys[i]) / h[i] }
	// Unknowns: M[1..n-2]; M[0] and M[n-1] are eliminated using the
	// not-a-knot conditions
	//   M0 = M1 + (h0/h1)(M1 − M2),   Mn−1 = Mn−2 + (h_{n−2}/h_{n−3})(Mn−2 − Mn−3).
	k := n - 2
	sub := make([]float64, k)
	diag := make([]float64, k)
	sup := make([]float64, k)
	rhs := make([]float64, k)
	for j := 0; j < k; j++ {
		i := j + 1 // interior knot index
		rhs[j] = div(i) - div(i-1)
		switch {
		case j == 0:
			// (h0/6)M0 + ((h0+h1)/3)M1 + (h1/6)M2 = rhs, with M0 substituted.
			diag[0] = (h[0]+h[1])/3 + h[0]/6*(1+h[0]/h[1])
			sup[0] = h[1]/6 - h[0]*h[0]/(6*h[1])
		case j == k-1:
			i := n - 2
			diag[j] = (h[i-1]+h[i])/3 + h[i]/6*(1+h[i]/h[i-1])
			sub[j] = h[i-1]/6 - h[i]*h[i]/(6*h[i-1])
		default:
			sub[j] = h[i-1] / 6
			diag[j] = (h[i-1] + h[i]) / 3
			sup[j] = h[i] / 6
		}
	}
	inner, err := numeric.SolveTridiagonal(sub, diag, sup, rhs)
	if err != nil {
		return nil, fmt.Errorf("spline: not-a-knot system: %w", err)
	}
	m := make([]float64, n)
	copy(m[1:], inner)
	m[0] = m[1] + h[0]/h[1]*(m[1]-m[2])
	m[n-1] = m[n-2] + h[n-2]/h[n-3]*(m[n-2]-m[n-3])
	return fromSecondDerivs(xs, ys, m), nil
}

// NewHermite constructs the piecewise cubic with prescribed values ys and
// first derivatives ds at every knot (C¹, not necessarily C²).
func NewHermite(xs, ys, ds []float64) (*Cubic, error) {
	if err := checkKnots(xs, ys, 2); err != nil {
		return nil, err
	}
	if len(ds) != len(xs) {
		return nil, fmt.Errorf("%w: derivative count %d != knot count %d", ErrBadKnots, len(ds), len(xs))
	}
	n := len(xs)
	s := &Cubic{
		xs: append([]float64(nil), xs...),
		a:  make([]float64, n-1),
		b:  make([]float64, n-1),
		c:  make([]float64, n-1),
		d:  make([]float64, n-1),
	}
	for i := 0; i < n-1; i++ {
		h := xs[i+1] - xs[i]
		dy := ys[i+1] - ys[i]
		s.a[i] = ys[i]
		s.b[i] = ds[i]
		s.c[i] = (3*dy/h - 2*ds[i] - ds[i+1]) / h
		s.d[i] = (ds[i] + ds[i+1] - 2*dy/h) / (h * h)
	}
	return s.withEnd(), nil
}

// NewPCHIP constructs the Fritsch–Carlson monotone piecewise cubic Hermite
// interpolant. Where the data are monotone the interpolant is monotone too —
// useful for service-demand curves, which must never interpolate below zero
// between positive samples.
func NewPCHIP(xs, ys []float64) (*Cubic, error) {
	if err := checkKnots(xs, ys, 2); err != nil {
		return nil, err
	}
	n := len(xs)
	if n == 2 {
		sl := (ys[1] - ys[0]) / (xs[1] - xs[0])
		return NewHermite(xs, ys, []float64{sl, sl})
	}
	h := make([]float64, n-1)
	delta := make([]float64, n-1)
	for i := range h {
		h[i] = xs[i+1] - xs[i]
		delta[i] = (ys[i+1] - ys[i]) / h[i]
	}
	d := make([]float64, n)
	for i := 1; i < n-1; i++ {
		if delta[i-1]*delta[i] <= 0 {
			d[i] = 0 // local extremum: flatten to preserve shape
			continue
		}
		// Weighted harmonic mean of neighbouring secants (Fritsch–Carlson).
		w1 := 2*h[i] + h[i-1]
		w2 := h[i] + 2*h[i-1]
		d[i] = (w1 + w2) / (w1/delta[i-1] + w2/delta[i])
	}
	d[0] = pchipEndSlope(h[0], h[1], delta[0], delta[1])
	d[n-1] = pchipEndSlope(h[n-2], h[n-3], delta[n-2], delta[n-3])
	return NewHermite(xs, ys, d)
}

// pchipEndSlope is the standard one-sided three-point boundary formula with
// the shape-preserving limiters from the PCHIP literature.
func pchipEndSlope(h0, h1, d0, d1 float64) float64 {
	s := ((2*h0+h1)*d0 - h0*d1) / (h0 + h1)
	if s*d0 <= 0 {
		return 0
	}
	if d0*d1 <= 0 && math.Abs(s) > 3*math.Abs(d0) {
		return 3 * d0
	}
	return s
}

// NewAkima constructs Akima's 1970 interpolant, which resists the overshoot
// of the classic cubic spline near outliers. Requires at least 5 points;
// fewer fall back to natural.
func NewAkima(xs, ys []float64) (*Cubic, error) {
	if err := checkKnots(xs, ys, 2); err != nil {
		return nil, err
	}
	n := len(xs)
	if n < 5 {
		return NewNatural(xs, ys)
	}
	// Extended secant slopes with Akima's quadratic end extension.
	m := make([]float64, n+3) // m[i+2] = secant of interval i
	for i := 0; i < n-1; i++ {
		m[i+2] = (ys[i+1] - ys[i]) / (xs[i+1] - xs[i])
	}
	m[1] = 2*m[2] - m[3]
	m[0] = 2*m[1] - m[2]
	m[n+1] = 2*m[n] - m[n-1]
	m[n+2] = 2*m[n+1] - m[n]
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		w1 := math.Abs(m[i+3] - m[i+2])
		w2 := math.Abs(m[i+1] - m[i])
		if w1+w2 == 0 {
			d[i] = (m[i+1] + m[i+2]) / 2
		} else {
			d[i] = (w1*m[i+1] + w2*m[i+2]) / (w1 + w2)
		}
	}
	return NewHermite(xs, ys, d)
}

// NewSmoothing constructs the Reinsch smoothing spline: the natural cubic
// spline ĥ minimising
//
//	Σᵢ (yᵢ − ĥ(xᵢ))² + λ ∫ ĥ''(x)² dx            (paper eq. 12)
//
// λ = 0 reproduces the natural interpolating spline; λ → ∞ tends to the
// least-squares straight line. Requires at least 3 points.
func NewSmoothing(xs, ys []float64, lambda float64) (*Cubic, error) {
	if err := checkKnots(xs, ys, 3); err != nil {
		return nil, err
	}
	if lambda < 0 {
		return nil, fmt.Errorf("%w: negative smoothing parameter %g", ErrBadKnots, lambda)
	}
	n := len(xs)
	h := make([]float64, n-1)
	for i := range h {
		h[i] = xs[i+1] - xs[i]
	}
	k := n - 2 // number of interior knots / unknown second derivatives
	// Build A = R + λ QᵀQ in symmetric band storage (bandwidth 2) and
	// rhs = Qᵀy, following Green & Silverman (1994), ch. 2.
	band := make([][]float64, k)
	for i := range band {
		band[i] = make([]float64, 3)
	}
	rhs := make([]float64, k)
	q := func(row, col int) float64 {
		// Q is n×k; column j touches rows j, j+1, j+2.
		switch row - col {
		case 0:
			return 1 / h[col]
		case 1:
			return -1/h[col] - 1/h[col+1]
		case 2:
			return 1 / h[col+1]
		default:
			return 0
		}
	}
	for j := 0; j < k; j++ {
		rhs[j] = (ys[j+2]-ys[j+1])/h[j+1] - (ys[j+1]-ys[j])/h[j]
		// R entries.
		band[j][0] = (h[j] + h[j+1]) / 3
		if j+1 < k {
			band[j][1] = h[j+1] / 6
		}
		// λ QᵀQ entries: (QᵀQ)[j][j+Δ] = Σ_row q(row,j)·q(row,j+Δ).
		for delta := 0; delta <= 2 && j+delta < k; delta++ {
			s := 0.0
			for row := j + delta; row <= j+2; row++ {
				s += q(row, j) * q(row, j+delta)
			}
			band[j][delta] += lambda * s
		}
	}
	gamma, err := numeric.SolveBandedSPD(band, rhs, 2)
	if err != nil {
		return nil, fmt.Errorf("spline: smoothing system: %w", err)
	}
	// Fitted knot values g = y − λ Q γ.
	g := append([]float64(nil), ys...)
	for j := 0; j < k; j++ {
		g[j] -= lambda * q(j, j) * gamma[j]
		g[j+1] -= lambda * q(j+1, j) * gamma[j]
		g[j+2] -= lambda * q(j+2, j) * gamma[j]
	}
	m := make([]float64, n)
	copy(m[1:], gamma) // natural: M₀ = M_{n−1} = 0
	return fromSecondDerivs(xs, g, m), nil
}

// NewLinear constructs the piecewise-linear interpolant as a degenerate
// Cubic, giving callers one uniform evaluation interface.
func NewLinear(xs, ys []float64) (*Cubic, error) {
	if err := checkKnots(xs, ys, 2); err != nil {
		return nil, err
	}
	n := len(xs)
	s := &Cubic{
		xs: append([]float64(nil), xs...),
		a:  make([]float64, n-1),
		b:  make([]float64, n-1),
		c:  make([]float64, n-1),
		d:  make([]float64, n-1),
	}
	for i := 0; i < n-1; i++ {
		s.a[i] = ys[i]
		s.b[i] = (ys[i+1] - ys[i]) / (xs[i+1] - xs[i])
	}
	return s.withEnd(), nil
}

// SetExtrapolation selects the out-of-range behaviour and returns the spline
// for chaining. The default is ExtrapConstant (paper eq. 14).
func (s *Cubic) SetExtrapolation(e Extrapolation) *Cubic {
	s.extrap = e
	return s
}

// Extrapolation reports the configured out-of-range behaviour.
func (s *Cubic) Extrapolation() Extrapolation { return s.extrap }

// Knots returns a copy of the knot abscissae.
func (s *Cubic) Knots() []float64 { return append([]float64(nil), s.xs...) }

// Domain returns the sampled interval [x₀, x_{n−1}].
func (s *Cubic) Domain() (lo, hi float64) { return s.xs[0], s.xs[len(s.xs)-1] }

// Eval evaluates the spline at x, honouring the extrapolation mode. Inside
// the knot range it evaluates only the value, in the same segment and by
// the same expression as EvalAll, so both return the same bits; outside it
// (NaN included) EvalAll applies the extrapolation rule.
func (s *Cubic) Eval(x float64) float64 {
	xs := s.xs
	if !(x >= xs[0] && x <= xs[len(xs)-1]) {
		v, _, _, _ := s.EvalAll(x)
		return v
	}
	i := s.segment(x)
	t := x - xs[i]
	return ((s.d[i]*t+s.c[i])*t+s.b[i])*t + s.a[i]
}

// EvalDeriv evaluates the k-th derivative (k = 0..3) at x.
func (s *Cubic) EvalDeriv(x float64, k int) float64 {
	v, d1, d2, d3 := s.EvalAll(x)
	switch k {
	case 0:
		return v
	case 1:
		return d1
	case 2:
		return d2
	case 3:
		return d3
	default:
		panic(fmt.Sprintf("spline: unsupported derivative order %d", k))
	}
}

// EvalAll evaluates the spline and its first three derivatives at x in one
// pass, mirroring the paper's eq. 13.
func (s *Cubic) EvalAll(x float64) (v, d1, d2, d3 float64) {
	n := len(s.xs)
	lo, hi := s.xs[0], s.xs[n-1]
	switch {
	case x < lo:
		switch s.extrap {
		case ExtrapConstant:
			return s.a[0], 0, 0, 0
		case ExtrapLinear:
			v0, sl, _, _ := s.evalSegment(0, lo)
			return v0 + sl*(x-lo), sl, 0, 0
		default:
			return s.evalSegment(0, x)
		}
	case x > hi:
		last := n - 2
		switch s.extrap {
		case ExtrapConstant:
			return s.end, 0, 0, 0
		case ExtrapLinear:
			vh, sl, _, _ := s.evalSegment(last, hi)
			return vh + sl*(x-hi), sl, 0, 0
		default:
			return s.evalSegment(last, x)
		}
	}
	return s.evalSegment(s.segment(x), x)
}

// segment locates the interval index containing x ∈ [x₀, x_{n−1}]: the
// first knot ≥ x, less one, clamped to the valid range. The binary search
// is written out (as sort.SearchFloat64s does it) so that it inlines into
// Eval's per-population path.
func (s *Cubic) segment(x float64) int {
	xs := s.xs
	lo, hi := 0, len(xs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if xs[h] < x {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return min(max(lo-1, 0), len(s.a)-1)
}

func (s *Cubic) evalSegment(i int, x float64) (v, d1, d2, d3 float64) {
	t := x - s.xs[i]
	a, b, c, d := s.a[i], s.b[i], s.c[i], s.d[i]
	v = ((d*t+c)*t+b)*t + a
	d1 = (3*d*t+2*c)*t + b
	d2 = 6*d*t + 2*c
	d3 = 6 * d
	return
}

// withEnd records end once the coefficients are final.
func (s *Cubic) withEnd() *Cubic {
	last := len(s.xs) - 2
	s.end, _, _, _ = s.evalSegment(last, s.xs[last+1])
	return s
}

// Integrate returns ∫ₐᵇ S(x) dx computed analytically per segment, with the
// active extrapolation mode applied outside the knot range.
func (s *Cubic) Integrate(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a > b {
		return -s.Integrate(b, a)
	}
	total := 0.0
	lo, hi := s.Domain()
	// Out-of-range pieces via 5-point Gauss-like fallback (the extrapolants
	// are at most linear or cubic, and Simpson is exact for cubics).
	if a < lo {
		end := math.Min(b, lo)
		total += numeric.Simpson(s.Eval, a, end, 1e-12)
		a = end
	}
	if b > hi {
		start := math.Max(a, hi)
		total += numeric.Simpson(s.Eval, start, b, 1e-12)
		b = hi
	}
	if a >= b {
		return total
	}
	for i := 0; i < len(s.a); i++ {
		segLo := math.Max(a, s.xs[i])
		segHi := math.Min(b, s.xs[i+1])
		if segLo >= segHi {
			continue
		}
		t0 := segLo - s.xs[i]
		t1 := segHi - s.xs[i]
		prim := func(t float64) float64 {
			return ((s.d[i]/4*t+s.c[i]/3)*t+s.b[i]/2)*t*t + s.a[i]*t
		}
		total += prim(t1) - prim(t0)
	}
	return total
}

// Roughness returns ∫ S”(x)² dx over the knot range, evaluated analytically
// (S” is linear per segment). This is the penalty term of eq. 12 and the
// "undulation" measure used in the Chebyshev-vs-random sampling study
// (paper Fig. 15).
func (s *Cubic) Roughness() float64 {
	total := 0.0
	for i := 0; i < len(s.a); i++ {
		h := s.xs[i+1] - s.xs[i]
		c, d := s.c[i], s.d[i]
		// ∫₀ʰ (2c + 6dt)² dt = 4c²h + 12cdh² + 12d²h³
		total += 4*c*c*h + 12*c*d*h*h + 12*d*d*h*h*h
	}
	return total
}

// checkKnots validates strictly increasing xs with matching ys and at least
// minPts points.
func checkKnots(xs, ys []float64, minPts int) error {
	if len(xs) < minPts {
		return fmt.Errorf("%w: need at least %d points, got %d", ErrBadKnots, minPts, len(xs))
	}
	if len(xs) != len(ys) {
		return fmt.Errorf("%w: len(xs)=%d != len(ys)=%d", ErrBadKnots, len(xs), len(ys))
	}
	if !numeric.IsSortedStrict(xs) {
		return fmt.Errorf("%w: abscissae not strictly increasing", ErrBadKnots)
	}
	return nil
}

// naturalSecondDerivs solves the natural-spline tridiagonal system for the
// knot second derivatives M (M₀ = M_{n−1} = 0).
func naturalSecondDerivs(xs, ys []float64) ([]float64, error) {
	if err := checkKnots(xs, ys, 2); err != nil {
		return nil, err
	}
	n := len(xs)
	m := make([]float64, n)
	if n == 2 {
		return m, nil
	}
	h := make([]float64, n-1)
	for i := range h {
		h[i] = xs[i+1] - xs[i]
	}
	k := n - 2
	sub := make([]float64, k)
	diag := make([]float64, k)
	sup := make([]float64, k)
	rhs := make([]float64, k)
	for j := 0; j < k; j++ {
		i := j + 1
		if j > 0 {
			sub[j] = h[i-1] / 6
		}
		diag[j] = (h[i-1] + h[i]) / 3
		if j < k-1 {
			sup[j] = h[i] / 6
		}
		rhs[j] = (ys[i+1]-ys[i])/h[i] - (ys[i]-ys[i-1])/h[i-1]
	}
	inner, err := numeric.SolveTridiagonal(sub, diag, sup, rhs)
	if err != nil {
		return nil, fmt.Errorf("spline: natural system: %w", err)
	}
	copy(m[1:], inner)
	return m, nil
}

// fromSecondDerivs assembles the piecewise-cubic coefficients from knot
// values and knot second derivatives.
func fromSecondDerivs(xs, ys, m []float64) *Cubic {
	n := len(xs)
	s := &Cubic{
		xs: append([]float64(nil), xs...),
		a:  make([]float64, n-1),
		b:  make([]float64, n-1),
		c:  make([]float64, n-1),
		d:  make([]float64, n-1),
	}
	for i := 0; i < n-1; i++ {
		h := xs[i+1] - xs[i]
		s.a[i] = ys[i]
		s.b[i] = (ys[i+1]-ys[i])/h - h*(2*m[i]+m[i+1])/6
		s.c[i] = m[i] / 2
		s.d[i] = (m[i+1] - m[i]) / (6 * h)
	}
	return s.withEnd()
}

// parabolaThrough returns the unique parabola through three points as a
// Cubic (both segments carry the same quadratic).
func parabolaThrough(xs, ys []float64) (*Cubic, error) {
	// Lagrange coefficients for p(x) = y0·L0 + y1·L1 + y2·L2, expressed per
	// segment around its left knot.
	x0, x1, x2 := xs[0], xs[1], xs[2]
	den0 := (x0 - x1) * (x0 - x2)
	den1 := (x1 - x0) * (x1 - x2)
	den2 := (x2 - x0) * (x2 - x1)
	// Quadratic coefficients in global x: p(x) = A + Bx + Cx².
	cA := ys[0]*x1*x2/den0 + ys[1]*x0*x2/den1 + ys[2]*x0*x1/den2
	cB := -ys[0]*(x1+x2)/den0 - ys[1]*(x0+x2)/den1 - ys[2]*(x0+x1)/den2
	cC := ys[0]/den0 + ys[1]/den1 + ys[2]/den2
	s := &Cubic{
		xs: append([]float64(nil), xs...),
		a:  make([]float64, 2),
		b:  make([]float64, 2),
		c:  make([]float64, 2),
		d:  make([]float64, 2),
	}
	for i := 0; i < 2; i++ {
		xi := xs[i]
		// Shift to local coordinate t = x − xi.
		s.a[i] = cA + cB*xi + cC*xi*xi
		s.b[i] = cB + 2*cC*xi
		s.c[i] = cC
		s.d[i] = 0
	}
	return s.withEnd(), nil
}
