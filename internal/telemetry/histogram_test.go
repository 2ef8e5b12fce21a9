package telemetry

import (
	"math"
	"testing"
)

// TestLogHistogramStatsAndQuantiles checks the collector's doubling-bucket
// histogram: exact count/max/mean, and quantiles reported as the upper
// bound of the bucket the rank falls in.
func TestLogHistogramStatsAndQuantiles(t *testing.T) {
	c := recordedCollector(t, []string{"t_s"}, []float64{0})
	h := c.Histogram("delay_s", 1, 10) // bounds 1,2,4,...,512
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if c.Histogram("delay_s", 99, 1) != h || c.Hist("delay_s") != h {
		t.Fatal("histogram not reused by name")
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Max() != 100 {
		t.Fatalf("max = %v", h.Max())
	}
	if got, want := h.Mean(), 50.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// p50 rank is 50 → bucket (32,64] → upper edge 64.
	if got := h.Quantile(0.5); got != 64 {
		t.Errorf("p50 = %v, want 64", got)
	}
	// p99 rank 99 → bucket (64,128] → 128.
	if got := h.Quantile(0.99); got != 128 {
		t.Errorf("p99 = %v, want 128", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want min", got)
	}
}

func TestLogHistogramOverflowQuantile(t *testing.T) {
	c := recordedCollector(t, []string{"t_s"}, []float64{0})
	h := c.Histogram("delay_s", 1, 2) // bounds 1, 2
	h.Add(0.5)
	h.Add(1000)
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	// The top quantile falls in overflowed mass → the observed max.
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("q1 = %v, want observed max 1000", got)
	}
}

// TestSamplerUnknownGauge: a gauge the recorder does not sample has no
// series in the collector's recording, and an unregistered histogram name
// yields nil.
func TestSamplerUnknownGauge(t *testing.T) {
	c := recordedCollector(t, []string{"t_s", "queue_depth"}, []float64{0, 2}, []float64{100, 4})
	rec, err := c.rec.Recording()
	if err != nil {
		t.Fatal(err)
	}
	if s := rec.Column("nope"); s != nil {
		t.Fatalf("unknown series = %v", s)
	}
	if i := rec.ColumnIndex("nope"); i >= 0 {
		t.Fatalf("unknown gauge has column %d", i)
	}
	if got := rec.Column("queue_depth"); len(got) != 2 || got[1] != 4 {
		t.Fatalf("known series = %v", got)
	}
	if c.Hist("nope") != nil {
		t.Fatal("unknown histogram reported")
	}
}
