package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10, 10)
	if h.N() != 0 || h.Quantile(0.5) != 0 || h.Sparkline() != "" {
		t.Fatal("empty histogram misbehaves")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) - 0.5) // one sample per bucket
	}
	if got := h.Quantile(0.5); math.Abs(got-50) > 1 {
		t.Fatalf("p50 = %v, want ≈50", got)
	}
	if got := h.Quantile(0.95); math.Abs(got-95) > 1 {
		t.Fatalf("p95 = %v, want ≈95", got)
	}
	if got := h.Quantile(1); math.Abs(got-100) > 1 {
		t.Fatalf("p100 = %v, want ≈100", got)
	}

	d := NewDoublingHistogram(1, 10) // bounds 1,2,4,...,512
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if d.N() != 100 || d.Max() != 100 {
		t.Fatalf("doubling n/max = %d/%v", d.N(), d.Max())
	}
	if got, want := d.Mean(), 50.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("doubling mean = %v, want %v", got, want)
	}
	// Rank 50 falls in (32,64], rank 99 in (64,128]: the upper bounds;
	// q0 is the minimum.
	for _, c := range []struct{ q, want float64 }{{0.5, 64}, {0.99, 128}, {0, 1}} {
		if got := d.Quantile(c.q); got != c.want {
			t.Errorf("doubling q%v = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestHistogramBucketBoundaries pins both bucket-edge rules: a fixed-width
// bucket i holds [i·w, (i+1)·w), so a sample on an edge moves up; a
// doubling bucket closes at its bound, so a sample on a bound stays down.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		doubling bool
		x        float64
		want     int // bucket index, or -1 for overflow
	}{
		{false, 0, 0}, {false, 9.999, 0}, {false, 10, 1}, {false, 39.999, 3},
		{false, 40, -1}, {false, -3, 0},
		{true, 0, 0}, {true, 10, 0}, {true, 10.0001, 1}, {true, 20, 1},
		{true, 20.0001, 2}, {true, 40, 2}, {true, 80, 3},
		{true, 80.0001, -1}, {true, 1e9, -1}, {true, -3, 0},
	}
	for _, c := range cases {
		h := NewHistogram(10, 4)
		if c.doubling {
			h = NewDoublingHistogram(10, 4)
		}
		h.Add(c.x)
		if c.want < 0 {
			if h.Overflow() != 1 {
				t.Errorf("doubling=%v Add(%v): want overflow, got buckets %v", c.doubling, c.x, h.counts)
			}
			continue
		}
		if h.Count(c.want) != 1 {
			t.Errorf("doubling=%v Add(%v): want bucket %d, got %v overflow=%d",
				c.doubling, c.x, c.want, h.counts, h.Overflow())
		}
	}
	linear, doubling := NewHistogram(30, 4), NewDoublingHistogram(10, 4)
	for i, want := range []float64{30, 60, 90, 120} {
		if got := linear.UpperBound(i); got != want {
			t.Errorf("linear UpperBound(%d) = %v, want %v", i, got, want)
		}
	}
	for i, want := range []float64{10, 20, 40, 80} {
		if got := doubling.UpperBound(i); got != want {
			t.Errorf("doubling UpperBound(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestHistogramNonFiniteSamples: NaN is dropped and +Inf lands in overflow
// for both bucket kinds, instead of indexing the buckets with int(±Inf)
// or int(NaN).
func TestHistogramNonFiniteSamples(t *testing.T) {
	for _, h := range []*Histogram{NewHistogram(30, 240), NewDoublingHistogram(8, 16)} {
		h.Add(math.NaN())
		if h.N() != 0 {
			t.Fatalf("NaN was ingested: n=%d", h.N())
		}
		h.Add(math.Inf(1))
		h.Add(math.Inf(-1))
		if h.N() != 2 || h.Overflow() != 1 || h.Count(0) != 1 {
			t.Fatalf("n=%d overflow=%d bucket0=%d, want 2, 1, 1", h.N(), h.Overflow(), h.Count(0))
		}
		if !math.IsInf(h.Quantile(1), 1) {
			t.Fatalf("top quantile = %v, want the +Inf maximum", h.Quantile(1))
		}
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(5)
	h.Add(1e6)
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	// Quantiles beyond the bucketed mass report the true max.
	if got := h.Quantile(0.99); got != 1e6 {
		t.Fatalf("overflowed quantile = %v, want observed max", got)
	}
	if h.Max() != 1e6 {
		t.Fatalf("Max = %v", h.Max())
	}

	d := NewDoublingHistogram(1, 2) // bounds 1, 2
	d.Add(0.5)
	d.Add(1000)
	if d.Overflow() != 1 {
		t.Fatalf("doubling overflow = %d", d.Overflow())
	}
	if got := d.Quantile(1); got != 1000 {
		t.Fatalf("doubling q1 = %v, want observed max 1000", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(-5)
	if h.N() != 1 || h.Overflow() != 0 {
		t.Fatal("negative sample mishandled")
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("quantile of clamped sample = %v, want first bucket edge", got)
	}
}

func TestHistogramDegenerateParams(t *testing.T) {
	h := NewHistogram(0, 0)
	h.Add(0.5)
	if h.N() != 1 {
		t.Fatal("degenerate params broke Add")
	}
}

func TestHistogramSparkline(t *testing.T) {
	h := NewHistogram(1, 5)
	for i := 0; i < 8; i++ {
		h.Add(2.5)
	}
	h.Add(0.5)
	s := []rune(h.Sparkline())
	if len(s) != 5 {
		t.Fatalf("sparkline length = %d", len(s))
	}
	if s[2] != '█' {
		t.Fatalf("modal bucket glyph = %c", s[2])
	}
}

func TestRegistryHistogramLazyCreation(t *testing.T) {
	r := NewRegistry()
	if r.Hist("x") != nil {
		t.Fatal("absent histogram should be nil")
	}
	h := r.Histogram("x", 10, 20)
	h.Add(15)
	if r.Hist("x") != h {
		t.Fatal("histogram not retained")
	}
	// Same name returns the same instance regardless of params.
	if r.Histogram("x", 999, 1) != h {
		t.Fatal("duplicate creation")
	}
}

// Property: the bucket-estimated quantile is within one bucket width above
// the true quantile for in-range data.
func TestPropertyQuantileAccuracy(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(5, 52) // covers 0..260 ≥ max uint8
		var xs []float64
		for _, v := range raw {
			x := float64(v)
			xs = append(xs, x)
			h.Add(x)
		}
		sortFloats(xs)
		for _, q := range []float64{0.25, 0.5, 0.9} {
			idx := int(math.Ceil(q*float64(len(xs)))) - 1
			if idx < 0 {
				idx = 0
			}
			truth := xs[idx]
			est := h.Quantile(q)
			if est < truth-1e-9 || est > truth+5+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
