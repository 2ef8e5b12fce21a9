package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLerpExtrapolates(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	if got := a.Lerp(b, 2); !got.Eq(Pt(20, 0)) {
		t.Fatalf("Lerp(2) = %v", got)
	}
	if got := a.Lerp(b, -1); !got.Eq(Pt(-10, 0)) {
		t.Fatalf("Lerp(-1) = %v", got)
	}
}

func TestRectCornersCCW(t *testing.T) {
	c := Square(Pt(0, 0), 2).Corners()
	if !c[0].Eq(Pt(0, 0)) || !c[1].Eq(Pt(2, 0)) || !c[2].Eq(Pt(2, 2)) || !c[3].Eq(Pt(0, 2)) {
		t.Fatalf("corners = %v", c)
	}
}

func TestBisectorOrientation(t *testing.T) {
	// The half-plane of Bisector(a,b) contains a, not b.
	a, b := Pt(3, 7), Pt(20, -4)
	h := Bisector(a, b)
	if h.Side(a) <= 0 {
		t.Fatal("bisector half-plane should contain a")
	}
	if h.Side(b) >= 0 {
		t.Fatal("bisector half-plane should exclude b")
	}
}

func TestRectString(t *testing.T) {
	if s := Square(Pt(0, 0), 1).String(); s == "" {
		t.Fatal("empty rect string")
	}
	if s := Pt(1, 2).String(); s != "(1.00, 2.00)" {
		t.Fatalf("point string = %q", s)
	}
}

// Property: a Voronoi cell of site i contains exactly the probes whose
// nearest site is i (up to boundary epsilon).
func TestPropertyVoronoiCellMatchesNearest(t *testing.T) {
	prop := func(seed int64) bool {
		src := newRandPoints(seed, 6, 100)
		bounds := Square(Pt(0, 0), 100)
		cells := VoronoiCells(src, bounds)
		probes := newRandPoints(seed+1, 40, 100)
		for _, p := range probes {
			owner := Nearest(p, src)
			// Skip probes near a boundary between cells.
			d0 := p.Dist(src[owner])
			ambiguous := false
			for j, s := range src {
				if j != owner && math.Abs(p.Dist(s)-d0) < 0.5 {
					ambiguous = true
				}
			}
			if ambiguous {
				continue
			}
			if !cells[owner].Contains(p) {
				return false
			}
			for j, c := range cells {
				if j != owner && c.Contains(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newRandPoints(seed int64, n int, side float64) []Point {
	// Simple LCG to avoid importing rng (would be an import cycle for the
	// geom tests? no cycle, but keep geom self-contained).
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	out := make([]Point, n)
	for i := range out {
		out[i] = Pt(next()*side, next()*side)
	}
	return out
}

// Property: clipping a polygon by complementary half-planes partitions its
// area.
func TestPropertyClipPartitionsArea(t *testing.T) {
	prop := func(nxRaw, nyRaw int8, offRaw int8) bool {
		nx, ny := float64(nxRaw), float64(nyRaw)
		if nx == 0 && ny == 0 {
			return true
		}
		pg := Square(Pt(-4, -4), 8).Polygon()
		off := float64(offRaw) / 16
		left := pg.Clip(HalfPlane{Normal: Pt(nx, ny), Offset: off})
		right := pg.Clip(HalfPlane{Normal: Pt(-nx, -ny), Offset: -off})
		var la, ra float64
		if left != nil {
			la = left.Area()
		}
		if right != nil {
			ra = right.Area()
		}
		return math.Abs(la+ra-pg.Area()) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
