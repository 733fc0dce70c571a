package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi, math.Pi},
		{TwoPi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{-TwoPi, 0},
		{7.5 * TwoPi, math.Pi},
	}
	for _, tt := range tests {
		if got := Normalize(tt.in); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("Normalize(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// Normalize is bit for bit the Mod-based reduction, including on the
// in-range fast path: −0, 0, just below 2π, and every other input.
func TestNormalizeMatchesMod(t *testing.T) {
	ref := func(theta float64) float64 {
		theta = math.Mod(theta, TwoPi)
		if theta < 0 {
			theta += TwoPi
		}
		if theta >= TwoPi {
			theta -= TwoPi
		}
		return theta
	}
	check := func(theta float64) bool {
		return math.Float64bits(Normalize(theta)) == math.Float64bits(ref(theta))
	}
	for _, theta := range []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.Nextafter(TwoPi, 0), TwoPi, -1e-20, math.Pi, -math.Pi, 1e300} {
		if !check(theta) {
			t.Errorf("Normalize(%v) = %v, Mod reduction gives %v", theta, Normalize(theta), ref(theta))
		}
	}
	if err := quick.Check(func(theta float64) bool {
		return math.IsNaN(theta) || math.IsInf(theta, 0) || (check(theta) && check(math.Mod(theta, 20)))
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeRangeProperty(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		n := Normalize(theta)
		return n >= 0 && n < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		n := Normalize(theta)
		return Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCCWDelta(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, math.Pi / 2, math.Pi / 2},
		{math.Pi / 2, 0, 3 * math.Pi / 2},
		{3, 3, 0},
		{TwoPi - 0.1, 0.1, 0.2},
	}
	for _, tt := range tests {
		if got := CCWDelta(tt.a, tt.b); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("CCWDelta(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAngularDist(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, math.Pi, math.Pi},
		{0, math.Pi / 4, math.Pi / 4},
		{math.Pi / 4, 0, math.Pi / 4},
		{0.1, TwoPi - 0.1, 0.2},
		{1, 1, 0},
	}
	for _, tt := range tests {
		if got := AngularDist(tt.a, tt.b); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("AngularDist(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAngularDistSymmetricProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		// Bound magnitudes so that b-a cannot overflow and the 2π
		// reduction stays meaningful.
		a, b = math.Mod(a, 1e6), math.Mod(b, 1e6)
		d1, d2 := AngularDist(a, b), AngularDist(b, a)
		return almostEq(d1, d2, 1e-9) && d1 >= 0 && d1 <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegreesRadiansRoundTrip(t *testing.T) {
	f := func(deg float64) bool {
		if math.IsNaN(deg) || math.Abs(deg) > 1e12 {
			return true
		}
		return almostEq(Degrees(Radians(deg)), deg, 1e-6*(1+math.Abs(deg)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
