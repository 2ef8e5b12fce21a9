// Package coverage estimates sensing coverage — the fraction of the field
// within sensing range of at least one alive sensor. Maintaining coverage
// is the paper's stated purpose ("some nodes may fail and leave holes in
// coverage ... One way of maintaining the coverage is to replace failed
// nodes"); this package quantifies how well each coordination algorithm
// actually preserves it over time.
package coverage

import (
	"math"

	"roborepair/internal/geom"
)

// Estimator measures covered area fraction on a regular probe grid. The
// grid resolution bounds the estimate's granularity; 1–2 probes per
// sensing radius is plenty for trend tracking.
type Estimator struct {
	bounds geom.Rect
	radius float64
	cols   int
	rows   int
	dx, dy float64
}

// NewEstimator probes the bounds on a cols×rows grid against the given
// sensing radius. Dimensions are clamped to at least 1.
func NewEstimator(bounds geom.Rect, sensingRadius float64, cols, rows int) *Estimator {
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Estimator{
		bounds: bounds,
		radius: sensingRadius,
		cols:   cols,
		rows:   rows,
		dx:     bounds.Width() / float64(cols),
		dy:     bounds.Height() / float64(rows),
	}
}

// Probes reports the number of grid probes.
func (e *Estimator) Probes() int { return e.cols * e.rows }

// Fraction returns the fraction of probe points within the sensing radius
// of at least one of the given sensor positions, using a coarse spatial
// bucket index so the cost is O(probes + sensors) rather than their
// product.
func (e *Estimator) Fraction(sensors []geom.Point) float64 {
	if len(sensors) == 0 {
		return 0
	}
	// Bucket sensors by probe-grid-aligned cells of size ≥ radius so a
	// probe only needs its 3×3 cell neighborhood.
	cell := math.Max(e.radius, 1e-9)
	type key struct{ cx, cy int }
	buckets := make(map[key][]geom.Point, len(sensors))
	for _, s := range sensors {
		k := key{int(math.Floor(s.X / cell)), int(math.Floor(s.Y / cell))}
		buckets[k] = append(buckets[k], s)
	}
	r2 := e.radius * e.radius
	covered := 0
	for i := 0; i < e.cols; i++ {
		for j := 0; j < e.rows; j++ {
			p := geom.Pt(
				e.bounds.Min.X+(float64(i)+0.5)*e.dx,
				e.bounds.Min.Y+(float64(j)+0.5)*e.dy,
			)
			k := key{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}
			hit := false
		scan:
			for cx := k.cx - 1; cx <= k.cx+1; cx++ {
				for cy := k.cy - 1; cy <= k.cy+1; cy++ {
					for _, s := range buckets[key{cx, cy}] {
						if p.Dist2(s) <= r2 {
							hit = true
							break scan
						}
					}
				}
			}
			if hit {
				covered++
			}
		}
	}
	return float64(covered) / float64(e.Probes())
}
