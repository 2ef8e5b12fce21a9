package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewIsDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds matched %d/100 draws", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	a := Split(7, "deployment")
	b := Split(7, "deployment")
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split with identical (seed, name) diverged")
		}
	}
}

func TestSplitStreamsIndependentByName(t *testing.T) {
	a := Split(7, "deployment")
	b := Split(7, "lifetimes")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("differently-named streams matched %d/100 draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform(10,20) = %v out of range", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	s := New(3)
	if v := s.Uniform(5, 5); v != 5 {
		t.Fatalf("Uniform(5,5) = %v, want 5", v)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(11)
	const mean = 16000.0
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(mean)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("empirical mean %v deviates >2%% from %v", got, mean)
	}
}

func TestExponentialAlwaysPositive(t *testing.T) {
	s := New(5)
	for i := 0; i < 100000; i++ {
		if v := s.Exponential(1); v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exponential produced invalid draw %v", v)
		}
	}
}

func TestExponentialPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestJitter(t *testing.T) {
	s := New(9)
	for i := 0; i < 1000; i++ {
		v := s.Jitter(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Jitter(10) = %v out of range", v)
		}
	}
	if s.Jitter(0) != 0 {
		t.Fatal("Jitter(0) should be 0")
	}
	if s.Jitter(-1) != 0 {
		t.Fatal("Jitter(-1) should be 0")
	}
}

func TestIntn(t *testing.T) {
	s := New(13)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) only produced %d distinct values", len(seen))
	}
}

// Property: exponential draws scale linearly with the mean (same stream
// position yields draw proportional to mean).
func TestPropertyExponentialScales(t *testing.T) {
	prop := func(seed int64, scaleRaw uint8) bool {
		scale := float64(scaleRaw%100) + 1
		a := New(seed)
		b := New(seed)
		x := a.Exponential(1)
		y := b.Exponential(scale)
		return math.Abs(y-scale*x) < 1e-9*scale
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Uniform(lo,hi) stays within [lo,hi) for any ordered pair.
func TestPropertyUniformBounds(t *testing.T) {
	prop := func(seed int64, a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := New(seed).Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
