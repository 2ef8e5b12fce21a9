package geom

import (
	"testing"
	"testing/quick"
)

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Contains reports whether p lies inside or on the boundary of the polygon
// (ray-casting with boundary tolerance).
func (pg Polygon) Contains(p Point) bool {
	if len(pg) < 3 {
		return false
	}
	const eps = 1e-9
	inside := false
	for i := 0; i < len(pg); i++ {
		j := (i + 1) % len(pg)
		a, b := pg[i], pg[j]
		if distPointSegment(p, a, b) <= eps {
			return true
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < x {
				inside = !inside
			}
		}
	}
	return inside
}

// distPointSegment returns the distance from p to segment ab.
func distPointSegment(p, a, b Point) float64 {
	ab := b.Sub(a)
	l2 := ab.Dot(ab)
	if l2 == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(a.Add(ab.Scale(t)))
}

func unitSquare() Polygon {
	return Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Min: Pt(1, 2), Max: Pt(4, 6)}
	if r.Width() != 3 || r.Height() != 4 || r.Area() != 12 {
		t.Fatalf("dims wrong: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if !r.Center().Eq(Pt(2.5, 4)) {
		t.Fatalf("Center = %v", r.Center())
	}
}

func TestRectContainsAndClamp(t *testing.T) {
	r := Square(Pt(0, 0), 10)
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 10)) || !r.Contains(Pt(5, 5)) {
		t.Error("Contains should include boundary and interior")
	}
	if r.Contains(Pt(10.01, 5)) {
		t.Error("Contains false positive")
	}
	if got := r.Clamp(Pt(-3, 15)); !got.Eq(Pt(0, 10)) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Clamp(Pt(4, 4)); !got.Eq(Pt(4, 4)) {
		t.Errorf("Clamp moved interior point: %v", got)
	}
}

func TestRectPolygonIsCCW(t *testing.T) {
	pg := Square(Pt(0, 0), 2).Polygon()
	if len(pg) != 4 {
		t.Fatalf("polygon has %d vertices", len(pg))
	}
	if pg.Area() != 4 {
		t.Fatalf("Area = %v, want 4", pg.Area())
	}
	if orientation(pg[0], pg[1], pg[2]) != 1 {
		t.Fatal("rect polygon is not counter-clockwise")
	}
}

func TestPolygonArea(t *testing.T) {
	if a := unitSquare().Area(); !almostEq(a, 1) {
		t.Errorf("unit square area = %v", a)
	}
	tri := Polygon{Pt(0, 0), Pt(4, 0), Pt(0, 3)}
	if a := tri.Area(); !almostEq(a, 6) {
		t.Errorf("triangle area = %v", a)
	}
	if a := (Polygon{Pt(0, 0), Pt(1, 1)}).Area(); a != 0 {
		t.Errorf("degenerate area = %v", a)
	}
	// Clockwise winding still yields positive area.
	cw := Polygon{Pt(0, 0), Pt(0, 1), Pt(1, 1), Pt(1, 0)}
	if a := cw.Area(); !almostEq(a, 1) {
		t.Errorf("cw square area = %v", a)
	}
}

func TestPolygonContains(t *testing.T) {
	pg := unitSquare()
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(0.5, 0.5), true},
		{Pt(0, 0), true},      // corner
		{Pt(0.5, 0), true},    // edge
		{Pt(1.5, 0.5), false}, // outside right
		{Pt(-0.1, 0.5), false},
		{Pt(0.5, 1.0000001), false},
	}
	for _, tt := range tests {
		if got := pg.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestBisectorHalfPlane(t *testing.T) {
	h := Bisector(Pt(0, 0), Pt(10, 0))
	if h.Side(Pt(1, 0)) <= 0 {
		t.Error("point near a should be inside a's half-plane")
	}
	if h.Side(Pt(9, 0)) >= 0 {
		t.Error("point near b should be outside a's half-plane")
	}
	if !almostEq(h.Side(Pt(5, 123)), 0) {
		t.Error("bisector line should be the zero set")
	}
}

func TestClipHalfSquare(t *testing.T) {
	pg := Square(Pt(0, 0), 2).Polygon()
	// Keep x <= 1.
	clipped := pg.Clip(HalfPlane{Normal: Pt(1, 0), Offset: 1})
	if !almostEq(clipped.Area(), 2) {
		t.Fatalf("clipped area = %v, want 2", clipped.Area())
	}
	for _, p := range clipped {
		if p.X > 1+1e-9 {
			t.Fatalf("vertex %v escaped the half-plane", p)
		}
	}
}

func TestClipToEmpty(t *testing.T) {
	pg := unitSquare()
	if got := pg.Clip(HalfPlane{Normal: Pt(1, 0), Offset: -1}); got != nil {
		t.Fatalf("clip to empty returned %v", got)
	}
	if got := (Polygon{}).Clip(HalfPlane{Normal: Pt(1, 0), Offset: 1}); got != nil {
		t.Fatalf("clip of empty returned %v", got)
	}
}

func TestClipNoOp(t *testing.T) {
	pg := unitSquare()
	got := pg.Clip(HalfPlane{Normal: Pt(1, 0), Offset: 100})
	if !almostEq(got.Area(), 1) {
		t.Fatalf("no-op clip changed area to %v", got.Area())
	}
}

// Property: clipping never increases area, and the result stays within the
// half-plane.
func TestPropertyClipShrinks(t *testing.T) {
	prop := func(nx, ny int8, off int8) bool {
		if nx == 0 && ny == 0 {
			return true
		}
		pg := Square(Pt(-5, -5), 10).Polygon()
		h := HalfPlane{Normal: Pt(float64(nx), float64(ny)), Offset: float64(off)}
		out := pg.Clip(h)
		if out == nil {
			return true
		}
		if out.Area() > pg.Area()+1e-9 {
			return false
		}
		for _, p := range out {
			if h.Side(p) < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a clipped polygon still contains every original vertex that
// satisfied the half-plane.
func TestPropertyClipKeepsInsideVertices(t *testing.T) {
	prop := func(nx, ny int8, off int8) bool {
		if nx == 0 && ny == 0 {
			return true
		}
		pg := Square(Pt(0, 0), 8).Polygon()
		h := HalfPlane{Normal: Pt(float64(nx), float64(ny)), Offset: float64(off)}
		out := pg.Clip(h)
		for _, p := range pg {
			if h.Side(p) > 1e-6 {
				if out == nil || !out.Contains(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
