package spline

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/numeric"
)

// interpolatesExactly checks S(x_i) = y_i at every knot.
func interpolatesExactly(t *testing.T, s *Cubic, xs, ys []float64, tol float64) {
	t.Helper()
	for i := range xs {
		if got := s.Eval(xs[i]); !numeric.AlmostEqual(got, ys[i], tol) {
			t.Errorf("S(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
}

func TestNaturalInterpolatesKnots(t *testing.T) {
	xs := []float64{0, 1, 2.5, 4, 7}
	ys := []float64{1, -2, 0.5, 3, -1}
	s, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	interpolatesExactly(t, s, xs, ys, 1e-12)
}

func TestNaturalEndSecondDerivativesZero(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 2, 1, 3, 0}
	s, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if d2 := s.EvalDeriv(0, 2); !numeric.AlmostEqual(d2, 0, 1e-10) {
		t.Errorf("S''(x0) = %g, want 0", d2)
	}
	if d2 := s.EvalDeriv(4, 2); !numeric.AlmostEqual(d2, 0, 1e-10) {
		t.Errorf("S''(xn) = %g, want 0", d2)
	}
}

func TestNaturalC2Continuity(t *testing.T) {
	xs := []float64{0, 0.7, 1.9, 3, 4.4, 6}
	ys := []float64{1, 0, 2, -1, 0.5, 2}
	s, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	for _, k := range []int{0, 1, 2} {
		for i := 1; i < len(xs)-1; i++ {
			left := s.EvalDeriv(xs[i]-eps, k)
			right := s.EvalDeriv(xs[i]+eps, k)
			if !numeric.AlmostEqual(left, right, 1e-5) {
				t.Errorf("derivative %d discontinuous at knot %d: %g vs %g", k, i, left, right)
			}
		}
	}
}

func TestTwoPointSplineIsLine(t *testing.T) {
	s, err := NewNatural([]float64{1, 3}, []float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Eval(2); !numeric.AlmostEqual(got, 5, 1e-12) {
		t.Errorf("midpoint = %g, want 5", got)
	}
	if d1 := s.EvalDeriv(2, 1); !numeric.AlmostEqual(d1, 3, 1e-12) {
		t.Errorf("slope = %g, want 3", d1)
	}
}

func TestClampedMatchesPrescribedSlopes(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 4, 9}
	s, err := NewClamped(xs, ys, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	interpolatesExactly(t, s, xs, ys, 1e-12)
	if d := s.EvalDeriv(0, 1); !numeric.AlmostEqual(d, 0.5, 1e-10) {
		t.Errorf("S'(0) = %g, want 0.5", d)
	}
	if d := s.EvalDeriv(3, 1); !numeric.AlmostEqual(d, 7, 1e-10) {
		t.Errorf("S'(3) = %g, want 7", d)
	}
}

func TestClampedTwoPointsHermite(t *testing.T) {
	s, err := NewClamped([]float64{0, 2}, []float64{0, 4}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.EvalDeriv(0, 1); !numeric.AlmostEqual(d, 0, 1e-12) {
		t.Errorf("S'(0) = %g, want 0", d)
	}
	if got := s.Eval(2); !numeric.AlmostEqual(got, 4, 1e-12) {
		t.Errorf("S(2) = %g, want 4", got)
	}
}

// TestClampedReproducesCubic: a clamped spline through samples of a cubic,
// with exact end slopes, must reproduce the cubic everywhere.
func TestClampedReproducesCubic(t *testing.T) {
	f := func(x float64) float64 { return 2 + x - 3*x*x + 0.5*x*x*x }
	fp := func(x float64) float64 { return 1 - 6*x + 1.5*x*x }
	xs := numeric.Linspace(0, 4, 9)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	s, err := NewClamped(xs, ys, fp(0), fp(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range numeric.Linspace(0, 4, 41) {
		if got := s.Eval(x); !numeric.AlmostEqual(got, f(x), 1e-9) {
			t.Errorf("S(%g) = %g, want %g", x, got, f(x))
		}
	}
}

// TestNotAKnotReproducesCubic: not-a-knot splines are exact for cubics
// without needing derivative data.
func TestNotAKnotReproducesCubic(t *testing.T) {
	f := func(x float64) float64 { return -1 + 2*x + x*x - 0.25*x*x*x }
	xs := numeric.Linspace(-2, 3, 8)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	s, err := NewNotAKnot(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range numeric.Linspace(-2, 3, 37) {
		if got := s.Eval(x); !numeric.AlmostEqual(got, f(x), 1e-8) {
			t.Errorf("S(%g) = %g, want %g", x, got, f(x))
		}
	}
}

func TestNotAKnotThreePointsParabola(t *testing.T) {
	// Through 3 points of x² the parabola fallback must be exact.
	xs := []float64{0, 1, 3}
	ys := []float64{0, 1, 9}
	s, err := NewNotAKnot(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 1.7, 2.9} {
		if got := s.Eval(x); !numeric.AlmostEqual(got, x*x, 1e-10) {
			t.Errorf("S(%g) = %g, want %g", x, got, x*x)
		}
	}
}

func TestHermiteMatchesData(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 1, 0}
	ds := []float64{1, 0, -1}
	s, err := NewHermite(xs, ys, ds)
	if err != nil {
		t.Fatal(err)
	}
	interpolatesExactly(t, s, xs, ys, 1e-12)
	for i := range xs {
		if d := s.EvalDeriv(xs[i], 1); !numeric.AlmostEqual(d, ds[i], 1e-10) {
			t.Errorf("S'(%g) = %g, want %g", xs[i], d, ds[i])
		}
	}
}

func TestPCHIPMonotonePreservation(t *testing.T) {
	// Monotone decreasing data (like the paper's service-demand curves)
	// must yield a monotone interpolant: no undershoot/overshoot.
	xs := []float64{1, 14, 28, 70, 140, 210}
	ys := []float64{0.010, 0.0085, 0.0077, 0.0070, 0.0068, 0.0067}
	s, err := NewPCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	interpolatesExactly(t, s, xs, ys, 1e-12)
	prev := s.Eval(1)
	for _, x := range numeric.Linspace(1, 210, 500)[1:] {
		cur := s.Eval(x)
		if cur > prev+1e-12 {
			t.Fatalf("PCHIP not monotone at x=%g: %g > %g", x, cur, prev)
		}
		prev = cur
	}
}

func TestPCHIPFlatSegments(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 1, 1, 1}
	s, err := NewPCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range numeric.Linspace(0, 3, 20) {
		if got := s.Eval(x); !numeric.AlmostEqual(got, 1, 1e-12) {
			t.Errorf("flat data: S(%g) = %g", x, got)
		}
	}
}

func TestAkimaInterpolatesAndResistsOvershoot(t *testing.T) {
	// Step-like data: Akima should overshoot less than the natural spline.
	xs := []float64{0, 1, 2, 3, 4, 5, 6}
	ys := []float64{0, 0, 0, 1, 1, 1, 1}
	ak, err := NewAkima(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	interpolatesExactly(t, ak, xs, ys, 1e-12)
	over := func(s *Cubic) float64 {
		worst := 0.0
		for _, x := range numeric.Linspace(0, 6, 300) {
			v := s.Eval(x)
			if v > 1 {
				worst = math.Max(worst, v-1)
			}
			if v < 0 {
				worst = math.Max(worst, -v)
			}
		}
		return worst
	}
	if oa, on := over(ak), over(nat); oa > on {
		t.Errorf("Akima overshoot %g exceeds natural spline overshoot %g", oa, on)
	}
}

func TestSmoothingLambdaZeroIsInterpolant(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 2, 5, 4}
	sm, err := NewSmoothing(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range numeric.Linspace(0, 4, 33) {
		if a, b := sm.Eval(x), nat.Eval(x); !numeric.AlmostEqual(a, b, 1e-9) {
			t.Errorf("λ=0 smoothing %g != natural %g at x=%g", a, b, x)
		}
	}
}

func TestSmoothingLargeLambdaIsRegressionLine(t *testing.T) {
	// Noisy samples of a line: with huge λ the smoother must approach the
	// least-squares line, which for symmetric noise is close to the truth.
	rng := rand.New(rand.NewSource(5))
	xs := numeric.Linspace(0, 10, 21)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x + 1 + 0.2*(rng.Float64()-0.5)
	}
	sm, err := NewSmoothing(xs, ys, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	// Roughness of the limit must be ~0 (a straight line).
	if r := sm.Roughness(); r > 1e-6 {
		t.Errorf("roughness %g, want ~0 for λ→∞", r)
	}
	// And the line must match the data trend.
	if v := sm.Eval(5); !numeric.AlmostEqual(v, 11, 0.05) {
		t.Errorf("smoothed midpoint %g, want ≈11", v)
	}
}

func TestSmoothingReducesRoughnessMonotonically(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := numeric.Linspace(0, 6, 13)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(x) + 0.3*(rng.Float64()-0.5)
	}
	prev := math.Inf(1)
	for _, lambda := range []float64{0, 0.01, 0.1, 1, 10} {
		sm, err := NewSmoothing(xs, ys, lambda)
		if err != nil {
			t.Fatal(err)
		}
		r := sm.Roughness()
		if r > prev+1e-9 {
			t.Errorf("roughness increased at λ=%g: %g > %g", lambda, r, prev)
		}
		prev = r
	}
}

func TestExtrapolationConstantPegsBoundaries(t *testing.T) {
	// Paper eq. 14: xq < x1 → y1; xq > xn → yn.
	xs := []float64{1, 2, 3}
	ys := []float64{10, 20, 15}
	s, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Eval(0); got != 10 {
		t.Errorf("left extrapolation = %g, want 10", got)
	}
	if got := s.Eval(99); got != 15 {
		t.Errorf("right extrapolation = %g, want 15", got)
	}
	if d := s.EvalDeriv(0, 1); d != 0 {
		t.Errorf("left extrapolated slope = %g, want 0", d)
	}
}

// TestEvalMatchesEvalAllBits pins the stored right-hand constant to the
// last segment evaluated at the last knot, and Eval to EvalAll's v, bit for
// bit, below, inside, on the knots of and above the sampled range, for
// every construction and extrapolation mode.
func TestEvalMatchesEvalAllBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := []float64{1, 13, 40, 77, 120, 181, 250}
	ys := []float64{0.021, 0.0197, 0.0183, 0.0176, 0.0171, 0.0169, 0.0168}
	builders := map[string]func() (*Cubic, error){
		"natural":   func() (*Cubic, error) { return NewNatural(xs, ys) },
		"clamped":   func() (*Cubic, error) { return NewClamped(xs, ys, -1e-4, 2e-5) },
		"notaknot":  func() (*Cubic, error) { return NewNotAKnot(xs, ys) },
		"pchip":     func() (*Cubic, error) { return NewPCHIP(xs, ys) },
		"akima":     func() (*Cubic, error) { return NewAkima(xs, ys) },
		"smoothing": func() (*Cubic, error) { return NewSmoothing(xs, ys, 10) },
		"linear":    func() (*Cubic, error) { return NewLinear(xs, ys) },
		"twopoint":  func() (*Cubic, error) { return NewNatural(xs[:2], ys[:2]) },
		"parabola":  func() (*Cubic, error) { return NewNotAKnot(xs[:3], ys[:3]) },
	}
	for name, build := range builders {
		s, err := build()
		if err != nil {
			t.Fatal(name, err)
		}
		lo, hi := s.Domain()
		if v, _, _, _ := s.evalSegment(len(s.a)-1, hi); math.Float64bits(s.end) != math.Float64bits(v) {
			t.Fatalf("%s: end = %v, last segment at %g = %v", name, s.end, hi, v)
		}
		at := []float64{math.Inf(-1), -1e300, lo - 7.5, math.Nextafter(lo, -1), lo, math.Nextafter(lo, 2*hi),
			hi, math.Nextafter(hi, 0), math.Nextafter(hi, 2*hi), 4 * hi, 1e300, math.Inf(1), math.NaN()}
		at = append(at, s.Knots()...)
		for i := 0; i < 200; i++ {
			at = append(at, lo+(hi-lo)*rng.Float64(), lo-(hi-lo)*rng.Float64(), hi+3*hi*rng.Float64())
		}
		for _, e := range []Extrapolation{ExtrapConstant, ExtrapLinear, ExtrapNatural} {
			s.SetExtrapolation(e)
			for _, x := range at {
				v, _, _, _ := s.EvalAll(x)
				if got := s.Eval(x); math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("%s/%v: Eval(%g) = %v (%#x), EvalAll v = %v (%#x)",
						name, e, x, got, math.Float64bits(got), v, math.Float64bits(v))
				}
			}
		}
	}
}

func TestExtrapolationLinear(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 1, 4}
	s, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	s.SetExtrapolation(ExtrapLinear)
	slope := s.EvalDeriv(2, 1)
	if got, want := s.Eval(3), 4+slope; !numeric.AlmostEqual(got, want, 1e-10) {
		t.Errorf("linear extrapolation = %g, want %g", got, want)
	}
	leftSlope := s.EvalDeriv(0, 1)
	if got, want := s.Eval(-2), -2*leftSlope; !numeric.AlmostEqual(got, want, 1e-10) {
		t.Errorf("left linear extrapolation = %g, want %g", got, want)
	}
}

func TestExtrapolationNaturalContinuesPolynomial(t *testing.T) {
	f := func(x float64) float64 { return 1 + x + x*x*x }
	xs := numeric.Linspace(0, 3, 7)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	s, err := NewNotAKnot(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	s.SetExtrapolation(ExtrapNatural)
	// Just beyond the boundary the continued cubic should track f closely.
	if got := s.Eval(3.2); !numeric.AlmostEqual(got, f(3.2), 1e-6) {
		t.Errorf("natural extrapolation = %g, want %g", got, f(3.2))
	}
}

func TestIntegrateMatchesSimpson(t *testing.T) {
	xs := numeric.Linspace(0, math.Pi, 15)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(x)
	}
	s, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	analytic := s.Integrate(0, math.Pi)
	quad := numeric.Simpson(s.Eval, 0, math.Pi, 1e-10)
	if !numeric.AlmostEqual(analytic, quad, 1e-7) {
		t.Errorf("analytic ∫ = %g vs Simpson %g", analytic, quad)
	}
	if !numeric.AlmostEqual(analytic, 2, 1e-3) {
		t.Errorf("∫sin spline = %g, want ≈2", analytic)
	}
}

func TestIntegrateSubIntervalAndReversed(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 2, 3} // identity → S(x) = x
	s, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Integrate(0.5, 2.5); !numeric.AlmostEqual(got, 3, 1e-10) {
		t.Errorf("∫x over [0.5,2.5] = %g, want 3", got)
	}
	if got := s.Integrate(2.5, 0.5); !numeric.AlmostEqual(got, -3, 1e-10) {
		t.Errorf("reversed = %g, want -3", got)
	}
	if got := s.Integrate(1, 1); got != 0 {
		t.Errorf("empty interval = %g, want 0", got)
	}
	// Crossing the boundary with constant extrapolation: ∫₃⁵ 3 dx = 6.
	if got := s.Integrate(3, 5); !numeric.AlmostEqual(got, 6, 1e-9) {
		t.Errorf("extrapolated ∫ = %g, want 6", got)
	}
}

func TestRoughnessOfLineIsZero(t *testing.T) {
	s, err := NewNatural([]float64{0, 1, 2, 3}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Roughness(); r > 1e-18 {
		t.Errorf("line roughness = %g, want 0", r)
	}
}

func TestRoughnessMatchesQuadrature(t *testing.T) {
	xs := []float64{0, 1, 2, 4, 5}
	ys := []float64{0, 2, -1, 3, 1}
	s, err := NewNatural(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := numeric.Simpson(func(x float64) float64 {
		d2 := s.EvalDeriv(x, 2)
		return d2 * d2
	}, 0, 5, 1e-10)
	if got := s.Roughness(); !numeric.AlmostEqual(got, want, 1e-6) {
		t.Errorf("analytic roughness %g vs quadrature %g", got, want)
	}
}

func TestLinearInterpolant(t *testing.T) {
	xs := []float64{0, 2, 5}
	ys := []float64{1, 5, -1}
	s, err := NewLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	interpolatesExactly(t, s, xs, ys, 1e-12)
	if got := s.Eval(1); !numeric.AlmostEqual(got, 3, 1e-12) {
		t.Errorf("linear midpoint = %g, want 3", got)
	}
	if got := s.Eval(3.5); !numeric.AlmostEqual(got, 2, 1e-12) {
		t.Errorf("linear at 3.5 = %g, want 2", got)
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := NewNatural([]float64{1}, []float64{1}); !errors.Is(err, ErrBadKnots) {
		t.Errorf("single point: %v", err)
	}
	if _, err := NewNatural([]float64{1, 1}, []float64{1, 2}); !errors.Is(err, ErrBadKnots) {
		t.Errorf("duplicate knots: %v", err)
	}
	if _, err := NewNatural([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrBadKnots) {
		t.Errorf("length mismatch: %v", err)
	}
	if _, err := NewSmoothing([]float64{1, 2, 3}, []float64{1, 2, 3}, -1); !errors.Is(err, ErrBadKnots) {
		t.Errorf("negative lambda: %v", err)
	}
	if _, err := NewHermite([]float64{1, 2}, []float64{1, 2}, []float64{0}); !errors.Is(err, ErrBadKnots) {
		t.Errorf("hermite deriv mismatch: %v", err)
	}
}

func TestDomainAndKnotsAccessors(t *testing.T) {
	xs := []float64{2, 4, 8}
	s, err := NewNatural(xs, []float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Domain()
	if lo != 2 || hi != 8 {
		t.Errorf("Domain = [%g, %g], want [2, 8]", lo, hi)
	}
	k := s.Knots()
	k[0] = -99 // must not alias internal state
	if got, _ := s.Domain(); got != 2 {
		t.Error("Knots() aliases internal state")
	}
}

func TestExtrapolationStringer(t *testing.T) {
	if ExtrapConstant.String() != "constant" || ExtrapLinear.String() != "linear" ||
		ExtrapNatural.String() != "natural" {
		t.Error("Extrapolation.String misbehaves")
	}
	if Extrapolation(42).String() == "" {
		t.Error("unknown extrapolation should still print")
	}
}

// TestSplineConvergenceOrder verifies the O(h⁴) convergence of the clamped
// spline on a smooth function: halving h should shrink the max error by ~16×.
func TestSplineConvergenceOrder(t *testing.T) {
	f := math.Sin
	fp := math.Cos
	maxErr := func(n int) float64 {
		xs := numeric.Linspace(0, math.Pi, n)
		ys := make([]float64, n)
		for i, x := range xs {
			ys[i] = f(x)
		}
		s, err := NewClamped(xs, ys, fp(0), fp(math.Pi))
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, x := range numeric.Linspace(0, math.Pi, 1001) {
			worst = math.Max(worst, math.Abs(s.Eval(x)-f(x)))
		}
		return worst
	}
	e1 := maxErr(9)
	e2 := maxErr(17)
	ratio := e1 / e2
	if ratio < 10 || ratio > 25 {
		t.Errorf("convergence ratio %g, want ≈16 for O(h⁴)", ratio)
	}
}

func BenchmarkNaturalConstruct(b *testing.B) {
	xs := numeric.Linspace(0, 100, 200)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(x / 7)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewNatural(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubicEval(b *testing.B) {
	xs := numeric.Linspace(0, 100, 200)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(x / 7)
	}
	s, err := NewNatural(xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Eval(float64(i%10000) / 100)
	}
}
