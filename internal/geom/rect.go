package geom

import "fmt"

// Rect is an axis-aligned rectangle with Min ≤ Max on both axes.
type Rect struct {
	Min, Max Point
}

// Square returns the axis-aligned square with lower-left corner at origin
// and the given side length.
func Square(origin Point, side float64) Rect {
	return Rect{Min: origin, Max: Point{origin.X + side, origin.Y + side}}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle's centroid.
func (r Rect) Center() Point { return r.Min.Mid(r.Max) }

// Clamp returns the point in r closest to p.
func (r Rect) Clamp(p Point) Point {
	if p.X < r.Min.X {
		p.X = r.Min.X
	}
	if p.X > r.Max.X {
		p.X = r.Max.X
	}
	if p.Y < r.Min.Y {
		p.Y = r.Min.Y
	}
	if p.Y > r.Max.Y {
		p.Y = r.Max.Y
	}
	return p
}

// Corners returns the four corners in counter-clockwise order starting at
// Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// Polygon returns the rectangle as a counter-clockwise polygon.
func (r Rect) Polygon() Polygon {
	c := r.Corners()
	return Polygon{c[0], c[1], c[2], c[3]}
}

// String formats the rectangle as [min → max].
func (r Rect) String() string { return fmt.Sprintf("[%v → %v]", r.Min, r.Max) }
