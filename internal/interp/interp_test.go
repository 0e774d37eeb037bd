package interp

import (
	"errors"
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/spline"
)

var sampleXs = []float64{1, 14, 28, 70, 140, 210}
var sampleYs = []float64{0.010, 0.0085, 0.0077, 0.0070, 0.0068, 0.0067}

func TestEveryMethodInterpolatesSamples(t *testing.T) {
	for _, m := range Methods() {
		if m == Smoothing {
			continue // smoothing with λ>0 does not interpolate by design
		}
		ip, err := New(m, sampleXs, sampleYs, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for i := range sampleXs {
			if got := ip.Eval(sampleXs[i]); !numeric.AlmostEqual(got, sampleYs[i], 1e-9) {
				t.Errorf("%s: f(%g) = %g, want %g", m, sampleXs[i], got, sampleYs[i])
			}
		}
	}
}

func TestSmoothingLambdaZeroInterpolates(t *testing.T) {
	ip, err := New(Smoothing, sampleXs, sampleYs, Options{Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sampleXs {
		if got := ip.Eval(sampleXs[i]); !numeric.AlmostEqual(got, sampleYs[i], 1e-9) {
			t.Errorf("f(%g) = %g, want %g", sampleXs[i], got, sampleYs[i])
		}
	}
}

func TestUnsortedInputIsSorted(t *testing.T) {
	xs := []float64{5, 1, 3}
	ys := []float64{25, 1, 9}
	ip, err := New(Linear, xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ip.Domain()
	if lo != 1 || hi != 5 {
		t.Errorf("Domain = [%g, %g], want [1, 5]", lo, hi)
	}
	if got := ip.Eval(2); !numeric.AlmostEqual(got, 5, 1e-12) {
		t.Errorf("linear f(2) = %g, want 5", got)
	}
}

func TestConstantExtrapolationDefault(t *testing.T) {
	// All spline-backed methods must peg to boundary ordinates by default
	// (paper eq. 14), and Polynomial must clamp too.
	for _, m := range Methods() {
		if m == Smoothing {
			continue
		}
		ip, err := New(m, sampleXs, sampleYs, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if got := ip.Eval(0); !numeric.AlmostEqual(got, sampleYs[0], 1e-9) {
			t.Errorf("%s: left extrapolation = %g, want %g", m, got, sampleYs[0])
		}
		if got := ip.Eval(5000); !numeric.AlmostEqual(got, sampleYs[len(sampleYs)-1], 1e-9) {
			t.Errorf("%s: right extrapolation = %g, want %g", m, got, sampleYs[len(sampleYs)-1])
		}
	}
}

func TestExtrapolationOptionPropagates(t *testing.T) {
	ip, err := New(CubicNatural, []float64{0, 1, 2}, []float64{0, 1, 4},
		Options{Extrapolation: spline.ExtrapLinear})
	if err != nil {
		t.Fatal(err)
	}
	// Linear extrapolation must not be constant.
	if v3, v4 := ip.Eval(3), ip.Eval(4); v3 == v4 {
		t.Error("linear extrapolation option was not applied")
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := New("bogus", sampleXs, sampleYs, Options{}); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("got %v, want ErrUnknownMethod", err)
	}
}

func TestLengthMismatch(t *testing.T) {
	if _, err := New(Linear, []float64{1, 2}, []float64{1}, Options{}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

func TestCurveConstant(t *testing.T) {
	c, err := NewCurve(CubicNatural, []float64{10}, []float64{0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-5, 10, 300} {
		if got := c.Eval(x); got != 0.5 {
			t.Errorf("constant curve at %g = %g", x, got)
		}
	}
	lo, hi := c.Domain()
	if lo != 10 || hi != 10 {
		t.Errorf("Domain = [%g, %g]", lo, hi)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCurveEmpty(t *testing.T) {
	if _, err := NewCurve(Linear, nil, nil, Options{}); err == nil {
		t.Error("expected error for empty curve")
	}
}

func TestCurveTable(t *testing.T) {
	c, err := NewCurve(CubicNotAKnot, sampleXs, sampleYs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid := numeric.Linspace(1, 300, 300)
	tab := c.Table(grid)
	if len(tab) != 300 {
		t.Fatalf("table length %d", len(tab))
	}
	// Beyond x=210 the table must be pegged at the last sample.
	if tab[299] != sampleYs[len(sampleYs)-1] {
		t.Errorf("table extrapolation %g, want %g", tab[299], sampleYs[len(sampleYs)-1])
	}
	// All demands positive for this monotone-decaying data.
	for i, v := range tab {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("table[%d] = %g", i, v)
		}
	}
}

func TestCurveSortsSamples(t *testing.T) {
	c, err := NewCurve(Linear, []float64{210, 1, 70}, []float64{0.0067, 0.010, 0.0070}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.X[0] != 1 || c.X[2] != 210 {
		t.Errorf("samples not sorted: %v", c.X)
	}
	if c.Y[0] != 0.010 {
		t.Errorf("ordinates not permuted with abscissae: %v", c.Y)
	}
}

func TestMethodsListMatchesConstructor(t *testing.T) {
	for _, m := range Methods() {
		if _, err := New(m, sampleXs, sampleYs, Options{}); err != nil {
			t.Errorf("listed method %s failed: %v", m, err)
		}
	}
}

// TestPeggedAbove pins which curves report a constant value above their
// last sample: every method under the default eq.-14 extrapolation, a
// polynomial under any option (its adapter clamps), a single-sample curve,
// and no spline under linear or natural extrapolation. Where it reports
// true, Eval above the last sample must indeed return one value.
func TestPeggedAbove(t *testing.T) {
	last := sampleXs[len(sampleXs)-1]
	for _, e := range []spline.Extrapolation{spline.ExtrapConstant, spline.ExtrapLinear, spline.ExtrapNatural} {
		for _, m := range Methods() {
			c, err := NewCurve(m, sampleXs, sampleYs, Options{Extrapolation: e, Lambda: 0.1})
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			hi, ok := c.PeggedAbove()
			want := e == spline.ExtrapConstant || m == Polynomial
			if hi != last || ok != want {
				t.Errorf("%s/%v: PeggedAbove = (%g, %v), want (%g, %v)", m, e, hi, ok, last, want)
			}
			if ok {
				v := c.Eval(math.Nextafter(last, math.Inf(1)))
				for _, x := range []float64{last + 1, 10 * last, 1e300} {
					if got := c.Eval(x); math.Float64bits(got) != math.Float64bits(v) {
						t.Errorf("%s/%v: Eval(%g) = %v, Eval just above the last sample = %v", m, e, x, got, v)
					}
				}
			}
		}
	}
	c, err := NewCurve(CubicNatural, []float64{12.5}, []float64{0.3}, Options{Extrapolation: spline.ExtrapLinear})
	if err != nil {
		t.Fatal(err)
	}
	if hi, ok := c.PeggedAbove(); hi != 12.5 || !ok {
		t.Errorf("single-sample curve: PeggedAbove = (%g, %v), want (12.5, true)", hi, ok)
	}
}
