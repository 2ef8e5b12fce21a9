package coverage

import (
	"math"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/rng"
)

func TestFractionEmpty(t *testing.T) {
	e := NewEstimator(geom.Square(geom.Pt(0, 0), 100), 20, 10, 10)
	if got := e.Fraction(nil); got != 0 {
		t.Fatalf("empty coverage = %v", got)
	}
}

func TestFractionFullyCovered(t *testing.T) {
	e := NewEstimator(geom.Square(geom.Pt(0, 0), 100), 200, 10, 10)
	if got := e.Fraction([]geom.Point{geom.Pt(50, 50)}); got != 1 {
		t.Fatalf("one giant sensor should cover everything: %v", got)
	}
}

func TestFractionHalfField(t *testing.T) {
	// A column of sensors along x=25 with radius 25 covers roughly the
	// left half of a 100-wide field.
	var sensors []geom.Point
	for y := 0.0; y <= 100; y += 10 {
		sensors = append(sensors, geom.Pt(25, y))
	}
	e := NewEstimator(geom.Square(geom.Pt(0, 0), 100), 25, 50, 50)
	got := e.Fraction(sensors)
	if got < 0.4 || got > 0.6 {
		t.Fatalf("half-field coverage = %v, want ≈0.5", got)
	}
}

func TestFractionMatchesPoissonModel(t *testing.T) {
	r := rng.New(1)
	const side = 400.0
	const n = 200
	const radius = 20.0
	sensors := make([]geom.Point, n)
	for i := range sensors {
		sensors[i] = geom.Pt(r.Uniform(0, side), r.Uniform(0, side))
	}
	e := NewEstimator(geom.Square(geom.Pt(0, 0), side), radius, 100, 100)
	got := e.Fraction(sensors)
	want := expectedFraction(n, radius, side*side)
	if math.Abs(got-want) > 0.06 {
		t.Fatalf("coverage %v vs Poisson model %v", got, want)
	}
}

func TestEstimatorClampsDimensions(t *testing.T) {
	e := NewEstimator(geom.Square(geom.Pt(0, 0), 10), 5, 0, -2)
	if e.Probes() != 1 {
		t.Fatalf("probes = %d, want 1", e.Probes())
	}
}

// expectedFraction is the Poisson-process prediction of the covered
// fraction for n sensors with the given sensing radius uniformly deployed
// over area: 1 − exp(−n·π·r²/area). It is the oracle the estimator is
// checked against.
func expectedFraction(n int, radius, area float64) float64 {
	if area <= 0 {
		return 0
	}
	return 1 - math.Exp(-float64(n)*math.Pi*radius*radius/area)
}

func TestExpectedFractionProperties(t *testing.T) {
	if expectedFraction(0, 20, 100) != 0 {
		t.Fatal("no sensors should cover nothing")
	}
	if expectedFraction(100, 20, 0) != 0 {
		t.Fatal("degenerate area should be 0")
	}
	// More sensors → more coverage, asymptotically 1.
	a := expectedFraction(10, 20, 1e5)
	b := expectedFraction(100, 20, 1e5)
	if b <= a || b > 1 {
		t.Fatalf("monotonicity broken: %v, %v", a, b)
	}
}

func BenchmarkFraction800Sensors(b *testing.B) {
	r := rng.New(1)
	sensors := make([]geom.Point, 800)
	for i := range sensors {
		sensors[i] = geom.Pt(r.Uniform(0, 800), r.Uniform(0, 800))
	}
	e := NewEstimator(geom.Square(geom.Pt(0, 0), 800), 20, 80, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Fraction(sensors)
	}
}
