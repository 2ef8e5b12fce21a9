package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a bucketed histogram with quantile estimation; used for
// distributional views the mean hides (e.g. the p99 repair delay under
// burst backlogs). Buckets are either fixed-width (NewHistogram) or
// doubling (NewDoublingHistogram), the latter spanning several decades
// with constant relative error in a handful of buckets.
type Histogram struct {
	width    float64 // bucket width; the upper bound of bucket 0 when doubling
	doubling bool
	counts   []uint64
	overflow uint64
	acc      Accumulator
}

// NewHistogram returns a histogram with `buckets` buckets of the given
// width covering [0, width·buckets); bucket i holds [i·width, (i+1)·width)
// and larger samples land in overflow.
func NewHistogram(width float64, buckets int) *Histogram {
	if width <= 0 {
		width = 1
	}
	if buckets < 1 {
		buckets = 1
	}
	return &Histogram{width: width, counts: make([]uint64, buckets)}
}

// NewDoublingHistogram returns a histogram whose bucket 0 covers
// [0, first] and whose every following bucket doubles the upper bound, up
// to first·2^(buckets−1); larger samples land in overflow. Bounds come
// from exact float doubling, so a sample equal to a bound lands in the
// bucket that bound closes. Non-positive first defaults to 1.
func NewDoublingHistogram(first float64, buckets int) *Histogram {
	h := NewHistogram(first, buckets)
	h.doubling = true
	return h
}

// UpperBound reports the upper bound of bucket i.
func (h *Histogram) UpperBound(i int) float64 {
	if h.doubling {
		return math.Ldexp(h.width, i)
	}
	return float64(i+1) * h.width
}

// bucket locates the bucket for x ≥ 0, or len(counts) for overflow.
func (h *Histogram) bucket(x float64) int {
	if !h.doubling {
		q := x / h.width
		if q >= float64(len(h.counts)) {
			return len(h.counts)
		}
		return int(q)
	}
	for i := range h.counts {
		if x <= h.UpperBound(i) {
			return i
		}
	}
	return len(h.counts)
}

// Add ingests one sample. Negative samples clamp to the first bucket,
// +Inf lands in overflow, and NaN is dropped.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.acc.Add(x)
	if i := h.bucket(math.Max(x, 0)); i < len(h.counts) {
		h.counts[i]++
	} else {
		h.overflow++
	}
}

// N reports the number of samples.
func (h *Histogram) N() int { return h.acc.N() }

// Sum reports the exact sample total.
func (h *Histogram) Sum() float64 { return h.acc.Sum() }

// Mean reports the exact sample mean.
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Max reports the exact maximum sample.
func (h *Histogram) Max() float64 { return h.acc.Max() }

// Buckets reports the number of regular (non-overflow) buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Count reports the occupancy of bucket i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Overflow reports samples beyond the bucketed range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Quantile estimates the q-quantile (0 < q ≤ 1) from the buckets, using
// the bucket upper bound. Overflowed mass reports the observed maximum.
func (h *Histogram) Quantile(q float64) float64 {
	n := uint64(h.acc.N())
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.acc.Min()
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return h.UpperBound(i)
		}
	}
	return h.acc.Max()
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f",
		h.N(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// Sparkline renders the bucket occupancy as a compact bar string (for
// CLI output); empty when no samples.
func (h *Histogram) Sparkline() string {
	if h.N() == 0 {
		return ""
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	var max uint64
	for _, c := range h.counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	var b strings.Builder
	for _, c := range h.counts {
		idx := int(float64(c) / float64(max) * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// Histogram returns (lazily creating) the named histogram in the
// registry. Width/buckets apply only at creation.
func (r *Registry) Histogram(name string, width float64, buckets int) *Histogram {
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(width, buckets)
		r.hists[name] = h
	}
	return h
}

// Hist returns the named histogram, or nil when absent.
func (r *Registry) Hist(name string) *Histogram {
	return r.hists[name]
}

// HistNames lists all registered histograms, sorted (for exporters).
func (r *Registry) HistNames() []string {
	out := make([]string, 0, len(r.hists))
	for k := range r.hists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
