// Package geo provides the planar geometry primitives used throughout SID:
// positions of buoys on the sea surface, sailing lines of ships, angles, and
// grid deployments.
//
// The coordinate system is a local tangent plane in meters. X grows east, Y
// grows north. Angles are in radians unless a name says otherwise, measured
// counter-clockwise from the +X axis.
package geo

import (
	"fmt"
	"math"
)

// Vec2 is a point or displacement on the sea surface, in meters.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the scalar (z) component of the cross product v × w.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec2) Unit() Vec2 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Angle returns the direction of v in radians in (-π, π].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.2f, %.2f)", v.X, v.Y) }

// Line is an infinite directed line: the set of points Origin + t·Dir.
// Dir is kept unit length by the constructor.
type Line struct {
	Origin Vec2
	Dir    Vec2
}

// NewLine returns the directed line through origin with direction dir.
// A zero dir yields a line with direction +X.
func NewLine(origin, dir Vec2) Line {
	u := dir.Unit()
	if u == (Vec2{}) {
		u = Vec2{1, 0}
	}
	return Line{Origin: origin, Dir: u}
}

// LineThrough returns the directed line from a toward b.
func LineThrough(a, b Vec2) Line { return NewLine(a, b.Sub(a)) }

// Dist returns the perpendicular distance from p to the line.
func (l Line) Dist(p Vec2) float64 {
	return math.Abs(l.Dir.Cross(p.Sub(l.Origin)))
}

// SignedDist returns the signed perpendicular distance from p to the line:
// positive if p lies to the left of the direction of travel.
func (l Line) SignedDist(p Vec2) float64 {
	return l.Dir.Cross(p.Sub(l.Origin))
}

// Project returns the scalar position of p's projection along the line,
// i.e. t such that Origin + t·Dir is the closest point on the line to p.
func (l Line) Project(p Vec2) float64 {
	return l.Dir.Dot(p.Sub(l.Origin))
}

// At returns the point Origin + t·Dir.
func (l Line) At(t float64) Vec2 { return l.Origin.Add(l.Dir.Scale(t)) }

// Deg converts degrees to radians.
func Deg(d float64) float64 { return d * math.Pi / 180 }

// ToDeg converts radians to degrees.
func ToDeg(r float64) float64 { return r * 180 / math.Pi }

// NormalizeAngle reduces an angle to (-π, π].
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	switch {
	case a <= -math.Pi:
		a += 2 * math.Pi
	case a > math.Pi:
		a -= 2 * math.Pi
	}
	return a
}

// AngleBetween returns the unsigned angle between two directions in [0, π].
func AngleBetween(a, b Vec2) float64 {
	ua, ub := a.Unit(), b.Unit()
	d := ua.Dot(ub)
	if d > 1 {
		d = 1
	} else if d < -1 {
		d = -1
	}
	return math.Acos(d)
}

// Knots converts a speed in knots to meters per second.
func Knots(kn float64) float64 { return kn * 0.514444 }

// ToKnots converts a speed in meters per second to knots.
func ToKnots(ms float64) float64 { return ms / 0.514444 }
