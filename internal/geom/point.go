// Package geom provides the planar geometry substrate used by the
// cone-based topology control algorithm: points and vectors, angle
// arithmetic on the unit circle, angular-gap detection, cone membership
// tests, and circular-arc coverage sets.
//
// All angles are in radians. Directions (bearings) are normalized to
// [0, 2π). The package is purely computational and allocation-light; it
// has no dependencies outside the standard library.
package geom

import (
	"fmt"
	"math"
)

// Point is a location (or free vector) in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{k * p.X, k * p.Y} }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
// It avoids the square root and is the preferred comparison key.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Midpoint returns the midpoint of segment pq.
func (p Point) Midpoint(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// Bearing returns the direction from p to q, normalized to [0, 2π).
// The bearing of a point to itself is 0 by convention.
func (p Point) Bearing(q Point) float64 {
	if p == q {
		return 0
	}
	return Normalize(math.Atan2(q.Y-p.Y, q.X-p.X))
}

// Polar returns the point at distance r from p in direction theta.
func (p Point) Polar(r, theta float64) Point {
	return Point{p.X + r*math.Cos(theta), p.Y + r*math.Sin(theta)}
}

// RotateAround returns p rotated by theta radians around center c.
func (p Point) RotateAround(c Point, theta float64) Point {
	s, co := math.Sin(theta), math.Cos(theta)
	v := p.Sub(c)
	return Point{c.X + v.X*co - v.Y*s, c.Y + v.X*s + v.Y*co}
}

// ReflectThrough returns the point reflection of p through center c,
// i.e. the point q with c as the midpoint of pq.
func (p Point) ReflectThrough(c Point) Point {
	return Point{2*c.X - p.X, 2*c.Y - p.Y}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }
