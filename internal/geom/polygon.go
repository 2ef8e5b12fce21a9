package geom

import "math"

// Polygon is a simple polygon given by its vertices in counter-clockwise
// order. The closing edge from the last vertex back to the first is
// implicit.
type Polygon []Point

// Area returns the polygon's area (always non-negative for a simple
// polygon regardless of winding).
func (pg Polygon) Area() float64 {
	if len(pg) < 3 {
		return 0
	}
	var sum float64
	for i := 0; i < len(pg); i++ {
		j := (i + 1) % len(pg)
		sum += pg[i].Cross(pg[j])
	}
	return math.Abs(sum) / 2
}

// HalfPlane is the set of points q with Normal·q ≤ Offset.
type HalfPlane struct {
	Normal Point
	Offset float64
}

// Bisector returns the half-plane of points at least as close to a as to
// b — the defining constraint of a's Voronoi cell against site b.
func Bisector(a, b Point) HalfPlane {
	n := b.Sub(a)
	mid := a.Mid(b)
	return HalfPlane{Normal: n, Offset: n.Dot(mid)}
}

// Side reports the signed slack Offset − Normal·p (≥ 0 means inside).
func (h HalfPlane) Side(p Point) float64 { return h.Offset - h.Normal.Dot(p) }

// Clip returns the intersection of the polygon with the half-plane, using
// the Sutherland–Hodgman step. The result may be empty.
func (pg Polygon) Clip(h HalfPlane) Polygon {
	if len(pg) == 0 {
		return nil
	}
	out := make(Polygon, 0, len(pg)+1)
	for i := 0; i < len(pg); i++ {
		cur := pg[i]
		next := pg[(i+1)%len(pg)]
		cs, ns := h.Side(cur), h.Side(next)
		if cs >= 0 {
			out = append(out, cur)
		}
		if (cs > 0 && ns < 0) || (cs < 0 && ns > 0) {
			t := cs / (cs - ns)
			out = append(out, cur.Lerp(next, t))
		}
	}
	if len(out) < 3 {
		return nil
	}
	return out
}
