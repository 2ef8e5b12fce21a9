package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGabrielEdgeBasic(t *testing.T) {
	u, v := Pt(0, 0), Pt(10, 0)
	if !GabrielEdge(u, v, nil) {
		t.Error("edge with no witnesses must be Gabriel")
	}
	// Witness at the midpoint kills the edge.
	if GabrielEdge(u, v, []Point{Pt(5, 0.1)}) {
		t.Error("witness inside diameter circle should kill the edge")
	}
	// Witness outside the circle does not.
	if !GabrielEdge(u, v, []Point{Pt(5, 6)}) {
		t.Error("witness outside circle should not kill the edge")
	}
	// Witness exactly on the circle boundary does not (closed circle test).
	if !GabrielEdge(u, v, []Point{Pt(5, 5)}) {
		t.Error("boundary witness should not kill the edge")
	}
}

func TestGabrielEdgeIgnoresEndpoints(t *testing.T) {
	u, v := Pt(0, 0), Pt(4, 0)
	if !GabrielEdge(u, v, []Point{u, v}) {
		t.Error("endpoints must not act as witnesses")
	}
}

// Property: the Gabriel graph restricted to any point set is planar — no
// two Gabriel edges properly cross. (Classical result; checked empirically
// on random sets, which is how the routing layer relies on it.)
func TestPropertyGabrielPlanarity(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pts := make([]Point, 12)
		for i := range pts {
			pts[i] = Pt(r.Float64()*50, r.Float64()*50)
		}
		type edge struct{ a, b int }
		var edges []edge
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				if GabrielEdge(pts[i], pts[j], pts) {
					edges = append(edges, edge{i, j})
				}
			}
		}
		for x := 0; x < len(edges); x++ {
			for y := x + 1; y < len(edges); y++ {
				e, f := edges[x], edges[y]
				if e.a == f.a || e.a == f.b || e.b == f.a || e.b == f.b {
					continue // sharing an endpoint is fine
				}
				if segmentsIntersect(pts[e.a], pts[e.b], pts[f.a], pts[f.b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// orientation classifies the turn a→b→c: +1 counter-clockwise, −1
// clockwise, 0 collinear (within eps of area).
func orientation(a, b, c Point) int {
	cross := b.Sub(a).Cross(c.Sub(a))
	const eps = 1e-12
	switch {
	case cross > eps:
		return 1
	case cross < -eps:
		return -1
	default:
		return 0
	}
}

// segmentsIntersect is the planarity test's oracle: it reports whether
// closed segments ab and cd share a point, including collinear overlap and
// shared endpoints.
func segmentsIntersect(a, b, c, d Point) bool {
	o1 := orientation(a, b, c)
	o2 := orientation(a, b, d)
	o3 := orientation(c, d, a)
	o4 := orientation(c, d, b)
	if o1 != o2 && o3 != o4 {
		return true
	}
	onSeg := func(p, q, r Point) bool { // r on segment pq, assuming collinear
		return min(p.X, q.X)-1e-12 <= r.X && r.X <= max(p.X, q.X)+1e-12 &&
			min(p.Y, q.Y)-1e-12 <= r.Y && r.Y <= max(p.Y, q.Y)+1e-12
	}
	return o1 == 0 && onSeg(a, b, c) || o2 == 0 && onSeg(a, b, d) ||
		o3 == 0 && onSeg(c, d, a) || o4 == 0 && onSeg(c, d, b)
}

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		name       string
		a, b, c, d Point
		want       bool
	}{
		{"cross", Pt(0, 0), Pt(2, 2), Pt(0, 2), Pt(2, 0), true},
		{"parallel", Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(1, 1), false},
		{"touch endpoint", Pt(0, 0), Pt(1, 1), Pt(1, 1), Pt(2, 0), true},
		{"collinear overlap", Pt(0, 0), Pt(2, 0), Pt(1, 0), Pt(3, 0), true},
		{"collinear disjoint", Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(3, 0), false},
		{"T-junction", Pt(0, 0), Pt(2, 0), Pt(1, -1), Pt(1, 1), true},
		{"near miss", Pt(0, 0), Pt(2, 0), Pt(1, 0.01), Pt(1, 1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := segmentsIntersect(tt.a, tt.b, tt.c, tt.d); got != tt.want {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
		})
	}
}
