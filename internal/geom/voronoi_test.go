package geom

import (
	"math/rand"
	"testing"
)

func TestVoronoiTwoSites(t *testing.T) {
	bounds := Square(Pt(0, 0), 10)
	sites := []Point{Pt(2.5, 5), Pt(7.5, 5)}
	cells := VoronoiCells(sites, bounds)
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	if !almostEq(cells[0].Area(), 50) || !almostEq(cells[1].Area(), 50) {
		t.Fatalf("areas = %v, %v; want 50, 50", cells[0].Area(), cells[1].Area())
	}
	if !cells[0].Contains(Pt(1, 5)) || cells[0].Contains(Pt(9, 5)) {
		t.Fatal("left cell membership wrong")
	}
}

func TestVoronoiSingleSiteIsWholeField(t *testing.T) {
	bounds := Square(Pt(0, 0), 4)
	cells := VoronoiCells([]Point{Pt(1, 1)}, bounds)
	if !almostEq(cells[0].Area(), 16) {
		t.Fatalf("single-site cell area = %v, want 16", cells[0].Area())
	}
}

func TestVoronoiCellContainsOwnSite(t *testing.T) {
	bounds := Square(Pt(0, 0), 100)
	r := rand.New(rand.NewSource(1))
	sites := make([]Point, 9)
	for i := range sites {
		sites[i] = Pt(r.Float64()*100, r.Float64()*100)
	}
	cells := VoronoiCells(sites, bounds)
	for i, c := range cells {
		if c == nil || !c.Contains(sites[i]) {
			t.Fatalf("cell %d does not contain its site %v", i, sites[i])
		}
	}
}

func TestVoronoiAreasSumToField(t *testing.T) {
	bounds := Square(Pt(0, 0), 200)
	r := rand.New(rand.NewSource(2))
	sites := make([]Point, 16)
	for i := range sites {
		sites[i] = Pt(r.Float64()*200, r.Float64()*200)
	}
	cells := VoronoiCells(sites, bounds)
	var sum float64
	for _, c := range cells {
		sum += c.Area()
	}
	if !almostEq(sum/bounds.Area(), 1) {
		t.Fatalf("cell areas sum to %v, field is %v", sum, bounds.Area())
	}
}

func TestVoronoiCoincidentSites(t *testing.T) {
	bounds := Square(Pt(0, 0), 10)
	sites := []Point{Pt(5, 5), Pt(5, 5)}
	// Coincident sites must not produce an empty-everything panic; each
	// ignores its twin and claims the full field.
	cells := VoronoiCells(sites, bounds)
	if cells[0] == nil || cells[1] == nil {
		t.Fatal("coincident sites produced nil cells")
	}
}

func TestVoronoiOwnerMatchesCellMembership(t *testing.T) {
	bounds := Square(Pt(0, 0), 100)
	r := rand.New(rand.NewSource(3))
	sites := make([]Point, 5)
	for i := range sites {
		sites[i] = Pt(r.Float64()*100, r.Float64()*100)
	}
	cells := VoronoiCells(sites, bounds)
	for trial := 0; trial < 500; trial++ {
		p := Pt(r.Float64()*100, r.Float64()*100)
		owner := Nearest(p, sites)
		if !cells[owner].Contains(p) {
			t.Fatalf("owner cell %d does not contain %v", owner, p)
		}
	}
}

func BenchmarkVoronoiCells16(b *testing.B) {
	bounds := Square(Pt(0, 0), 800)
	r := rand.New(rand.NewSource(1))
	sites := make([]Point, 16)
	for i := range sites {
		sites[i] = Pt(r.Float64()*800, r.Float64()*800)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VoronoiCells(sites, bounds)
	}
}
