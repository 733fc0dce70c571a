package geom

import "math"

// TwoPi is the full circle in radians.
const TwoPi = 2 * math.Pi

// Eps is the default angular tolerance used throughout the package.
// The connectivity theorems compare gaps against α with strict
// inequalities; Eps absorbs floating-point noise so that constructions
// with gaps exactly equal to α (Example 2.1 of the paper) behave as the
// analysis prescribes.
const Eps = 1e-9

// Normalize maps an angle to the canonical range [0, 2π).
func Normalize(theta float64) float64 {
	// An angle already in range is returned as is, which is exactly what
	// Mod does with it (−0 included) at a fraction of the cost; bearings
	// and kept-normalized direction sets take this path.
	if theta >= 0 && theta < TwoPi {
		return theta
	}
	theta = math.Mod(theta, TwoPi)
	if theta < 0 {
		theta += TwoPi
	}
	// Mod can return 2π for inputs like -1e-20 after the correction above.
	if theta >= TwoPi {
		theta -= TwoPi
	}
	return theta
}

// CCWDelta returns the counterclockwise angular distance from angle a to
// angle b, in [0, 2π).
func CCWDelta(a, b float64) float64 {
	return Normalize(b - a)
}

// AngularDist returns the absolute angular distance between a and b,
// i.e. the length of the shorter arc, in [0, π].
func AngularDist(a, b float64) float64 {
	d := CCWDelta(a, b)
	if d > math.Pi {
		d = TwoPi - d
	}
	return d
}

// Degrees converts radians to degrees. Intended for human-readable output.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }
