// Package geom provides the 2-D computational geometry the coordination
// algorithms rest on: distances, rectangles, polygon clipping, Voronoi
// cells, Gabriel-graph planarization (for face routing) and the square /
// hexagonal area partitions of the fixed distributed algorithm.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D sensor field, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. Prefer it
// for comparisons on hot paths (neighbor scans, Voronoi assignment).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Mid returns the midpoint of segment pq.
func (p Point) Mid(q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Unit returns the unit vector pointing from p toward q. If p == q it
// returns the zero vector.
func (p Point) Unit(q Point) Point {
	d := p.Dist(q)
	if d == 0 {
		return Point{}
	}
	return Point{(q.X - p.X) / d, (q.Y - p.Y) / d}
}

// Angle returns the angle of the vector from p to q in radians, in (−π, π].
func (p Point) Angle(q Point) float64 { return math.Atan2(q.Y-p.Y, q.X-p.X) }

// Eq reports exact equality of coordinates.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// String formats the point with centimeter precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Nearest returns the index of the point in sites closest to p, or −1 for
// an empty slice. Ties resolve to the lowest index, keeping the result
// deterministic.
func Nearest(p Point, sites []Point) int {
	best, bestD := -1, math.Inf(1)
	for i, s := range sites {
		if d := p.Dist2(s); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
