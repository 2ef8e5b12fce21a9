package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	a, b := Pt(1, 2), Pt(3, 5)
	if got := a.Add(b); !got.Eq(Pt(4, 7)) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); !got.Eq(Pt(2, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(3); !got.Eq(Pt(3, 6)) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 13 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != -1 {
		t.Errorf("Cross = %v", got)
	}
}

func TestPointDistances(t *testing.T) {
	a, b := Pt(0, 0), Pt(3, 4)
	if !almostEq(a.Dist(b), 5) {
		t.Errorf("Dist = %v", a.Dist(b))
	}
	if !almostEq(a.Dist2(b), 25) {
		t.Errorf("Dist2 = %v", a.Dist2(b))
	}
}

func TestPointMidLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Mid(b); !got.Eq(Pt(5, 10)) {
		t.Errorf("Mid = %v", got)
	}
	if got := a.Lerp(b, 0.25); !got.Eq(Pt(2.5, 5)) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); !got.Eq(a) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !got.Eq(b) {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestPointUnit(t *testing.T) {
	u := Pt(0, 0).Unit(Pt(0, 7))
	if !almostEq(u.X, 0) || !almostEq(u.Y, 1) {
		t.Errorf("Unit = %v", u)
	}
	if z := Pt(1, 1).Unit(Pt(1, 1)); !z.Eq(Pt(0, 0)) {
		t.Errorf("Unit of identical points = %v, want zero", z)
	}
}

func TestPointAngle(t *testing.T) {
	if a := Pt(0, 0).Angle(Pt(1, 0)); !almostEq(a, 0) {
		t.Errorf("Angle east = %v", a)
	}
	if a := Pt(0, 0).Angle(Pt(0, 1)); !almostEq(a, math.Pi/2) {
		t.Errorf("Angle north = %v", a)
	}
}

func TestOrientation(t *testing.T) {
	if orientation(Pt(0, 0), Pt(1, 0), Pt(1, 1)) != 1 {
		t.Error("left turn should be +1")
	}
	if orientation(Pt(0, 0), Pt(1, 0), Pt(1, -1)) != -1 {
		t.Error("right turn should be -1")
	}
	if orientation(Pt(0, 0), Pt(1, 1), Pt(2, 2)) != 0 {
		t.Error("collinear should be 0")
	}
}

func TestNearest(t *testing.T) {
	sites := []Point{Pt(0, 0), Pt(10, 0), Pt(5, 5)}
	if got := Nearest(Pt(9, 1), sites); got != 1 {
		t.Errorf("Nearest = %d, want 1", got)
	}
	if got := Nearest(Pt(0, 0), nil); got != -1 {
		t.Errorf("Nearest(empty) = %d, want -1", got)
	}
	// Tie resolves to the lowest index.
	if got := Nearest(Pt(5, 0), []Point{Pt(0, 0), Pt(10, 0)}); got != 0 {
		t.Errorf("tie broke to %d, want 0", got)
	}
}

func TestPropertyDistSymmetricNonNegative(t *testing.T) {
	prop := func(ax, ay, bx, by int16) bool {
		a, b := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		return a.Dist(b) >= 0 && almostEq(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	prop := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDist2MatchesDistSquared(t *testing.T) {
	prop := func(ax, ay, bx, by int16) bool {
		a, b := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		d := a.Dist(b)
		return math.Abs(a.Dist2(b)-d*d) < 1e-6*(1+d*d)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
