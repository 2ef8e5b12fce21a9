package analysis

import (
	"math"
	"testing"

	"roborepair/internal/rng"
)

func TestExpectedPairDistMonteCarlo(t *testing.T) {
	r := rng.New(1)
	const side = 200.0
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		ax, ay := r.Uniform(0, side), r.Uniform(0, side)
		bx, by := r.Uniform(0, side), r.Uniform(0, side)
		sum += math.Hypot(ax-bx, ay-by)
	}
	got := sum / n
	want := ExpectedPairDist(side)
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("Monte Carlo pair dist %v vs closed form %v", got, want)
	}
}

func TestExpectedDistToCenterMonteCarlo(t *testing.T) {
	r := rng.New(2)
	const side = 400.0
	const n = 200000
	center := side / 2
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Hypot(r.Uniform(0, side)-center, r.Uniform(0, side)-center)
	}
	got := sum / n
	want := ExpectedDistToCenter(side)
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("Monte Carlo center dist %v vs closed form %v", got, want)
	}
}

func TestExpectedNearestOfKMonteCarlo(t *testing.T) {
	r := rng.New(3)
	const side = 800.0
	const k = 16
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		px, py := r.Uniform(0, side), r.Uniform(0, side)
		best := math.Inf(1)
		for j := 0; j < k; j++ {
			d := math.Hypot(r.Uniform(0, side)-px, r.Uniform(0, side)-py)
			if d < best {
				best = d
			}
		}
		sum += best
	}
	got := sum / n
	want := ExpectedNearestOfK(side, k)
	// The Poisson approximation ignores boundary effects; allow 10%.
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("Monte Carlo nearest-of-%d %v vs approximation %v", k, got, want)
	}
}

func TestExpectedNearestOfKScaling(t *testing.T) {
	// Quadrupling the robot count halves the expected distance.
	a := ExpectedNearestOfK(800, 4)
	b := ExpectedNearestOfK(800, 16)
	if math.Abs(a/b-2) > 1e-9 {
		t.Fatalf("scaling wrong: %v / %v", a, b)
	}
	if ExpectedNearestOfK(0, 4) != 0 || ExpectedNearestOfK(800, 0) != 0 {
		t.Fatal("degenerate inputs should be 0")
	}
}

func TestExpectedNearestOfKPaperScale(t *testing.T) {
	// The paper observes ≈100 m per failure: area per robot is 200×200,
	// so E ≈ 200/2 = 100, independent of robot count.
	for _, k := range []int{4, 9, 16} {
		side := 200 * math.Sqrt(float64(k))
		if got := ExpectedNearestOfK(side, k); math.Abs(got-100) > 1e-9 {
			t.Fatalf("k=%d: E = %v, want 100", k, got)
		}
	}
}

func TestExpectedHops(t *testing.T) {
	if got := ExpectedHops(0, 63, 63); got != 0 {
		t.Fatalf("zero distance hops = %v", got)
	}
	if got := ExpectedHops(50, 63, 63); got != 1 {
		t.Fatalf("in-range hops = %v, want 1", got)
	}
	// 100 m with 63 m hops at 80% progress: 1 + ceil((100-50.4)/50.4) = 2.
	if got := ExpectedHops(100, 63, 63); got != 2 {
		t.Fatalf("100 m hops = %v, want 2", got)
	}
	// Manager's 250 m first hop shortens long paths.
	long := ExpectedHops(300, 63, 63)
	mgr := ExpectedHops(300, 250, 63)
	if mgr >= long {
		t.Fatalf("250 m first hop should reduce hops: %v vs %v", mgr, long)
	}
}

func TestExpectedFailures(t *testing.T) {
	// 200 sensors, 16000 s mean lifetime, 64000 s horizon → 800 failures.
	if got := ExpectedFailures(200, 16000, 64000); got != 800 {
		t.Fatalf("expected failures = %v", got)
	}
	if ExpectedFailures(200, 0, 64000) != 0 {
		t.Fatal("zero lifetime should yield 0, not Inf")
	}
}

func TestUtilizationAndMG1(t *testing.T) {
	if got := Utilization(0.01, 50); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rho = %v", got)
	}
	// M/D/1 (zero variance): W = λ·E[S]²/(2(1−ρ)).
	w := MG1Wait(0.01, 50, 0)
	want := 0.01 * 2500 / (2 * 0.5)
	if math.Abs(w-want) > 1e-9 {
		t.Fatalf("M/D/1 wait = %v, want %v", w, want)
	}
	// Higher variance means longer waits.
	if MG1Wait(0.01, 50, 1000) <= w {
		t.Fatal("variance should increase wait")
	}
	if !math.IsInf(MG1Wait(0.03, 50, 0), 1) {
		t.Fatal("overloaded queue should report Inf")
	}
}
