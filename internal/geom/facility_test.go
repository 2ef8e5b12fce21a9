package geom

import (
	"math"
	"testing"
)

func TestKMedianEmptyAndDegenerate(t *testing.T) {
	if got := KMedian(nil, 3); got != nil {
		t.Fatalf("KMedian(nil) = %v, want nil", got)
	}
	if got := KMedian([]Point{Pt(1, 2)}, 0); got != nil {
		t.Fatalf("KMedian(k=0) = %v, want nil", got)
	}
	// k exceeding the demand count clamps: every demand is a facility.
	pts := []Point{Pt(0, 0), Pt(10, 0)}
	got := KMedian(pts, 5)
	if len(got) != 2 {
		t.Fatalf("KMedian clamp: got %d facilities, want 2", len(got))
	}
	// All-coincident demands yield a single facility.
	same := []Point{Pt(3, 3), Pt(3, 3), Pt(3, 3)}
	got = KMedian(same, 2)
	if len(got) != 1 || got[0] != Pt(3, 3) {
		t.Fatalf("KMedian coincident = %v, want [ (3,3) ]", got)
	}
}

func TestKMedianSingleClusterFindsMedian(t *testing.T) {
	// Symmetric cross around (5,5): geometric median is the center.
	pts := []Point{Pt(5, 0), Pt(5, 10), Pt(0, 5), Pt(10, 5)}
	got := KMedian(pts, 1)
	if len(got) != 1 {
		t.Fatalf("got %d facilities, want 1", len(got))
	}
	if got[0].Dist(Pt(5, 5)) > 1e-3 {
		t.Fatalf("median %v, want ≈(5,5)", got[0])
	}
}

func TestKMedianSeparatesClusters(t *testing.T) {
	// Two tight, well-separated clusters: k=2 must put one facility in
	// each.
	var pts []Point
	for i := 0; i < 5; i++ {
		pts = append(pts, Pt(float64(i), 0))     // cluster A around (2,0)
		pts = append(pts, Pt(100+float64(i), 0)) // cluster B around (102,0)
	}
	got := KMedian(pts, 2)
	if len(got) != 2 {
		t.Fatalf("got %d facilities, want 2", len(got))
	}
	inA, inB := 0, 0
	for _, f := range got {
		switch {
		case f.X < 50:
			inA++
		default:
			inB++
		}
	}
	if inA != 1 || inB != 1 {
		t.Fatalf("facilities %v: want one per cluster", got)
	}
}

func TestKMedianDeterministic(t *testing.T) {
	pts := []Point{
		Pt(1, 7), Pt(42, 3), Pt(8, 8), Pt(8, 8), Pt(19, 61),
		Pt(55, 2), Pt(3, 3), Pt(70, 70), Pt(69, 71), Pt(2, 60),
	}
	a := KMedian(pts, 3)
	b := KMedian(pts, 3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("facility %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestKCenterGreedy(t *testing.T) {
	if got := KCenter(nil, 2); got != nil {
		t.Fatalf("KCenter(nil) = %v, want nil", got)
	}
	// Three well-separated points, k=3: each becomes its own center and
	// the k-center cost drops to zero.
	pts := []Point{Pt(0, 0), Pt(100, 0), Pt(50, 90)}
	got := KCenter(pts, 3)
	if len(got) != 3 {
		t.Fatalf("got %d centers, want 3", len(got))
	}
	if _, max := facilityCost(pts, got); max != 0 {
		t.Fatalf("k=n cover has max distance %v, want 0", max)
	}
	// Greedy 2-approximation bound: cost(greedy k=2) ≤ 2·OPT. For this
	// instance OPT(k=2) = 51.5… (pair the two closest); just sanity-check
	// the cover radius is at most the pairwise max distance.
	got = KCenter(pts, 2)
	if len(got) != 2 {
		t.Fatalf("got %d centers, want 2", len(got))
	}
	_, max := facilityCost(pts, got)
	if max <= 0 || max > 110 {
		t.Fatalf("k-center radius %v out of range", max)
	}
}

func TestKCenterFirstSeedIsFirstDemand(t *testing.T) {
	pts := []Point{Pt(9, 9), Pt(0, 0), Pt(20, 20)}
	got := KCenter(pts, 1)
	if len(got) != 1 || got[0] != Pt(9, 9) {
		t.Fatalf("KCenter(k=1) = %v, want [ (9,9) ] (deterministic first seed)", got)
	}
}

// facilityCost is the k-center tests' oracle: the summed (k-median) and
// maximum (k-center) distances from each demand to its nearest facility,
// both zero for empty inputs.
func facilityCost(demands, facilities []Point) (sum, max float64) {
	if len(facilities) == 0 {
		return 0, 0
	}
	for _, d := range demands {
		dist := d.Dist(facilities[Nearest(d, facilities)])
		sum += dist
		if dist > max {
			max = dist
		}
	}
	return sum, max
}

func TestFacilityCost(t *testing.T) {
	if sum, max := facilityCost([]Point{Pt(1, 1)}, nil); sum != 0 || max != 0 {
		t.Fatalf("no facilities: cost (%v,%v), want (0,0)", sum, max)
	}
	demands := []Point{Pt(0, 0), Pt(3, 4), Pt(10, 0)}
	fac := []Point{Pt(0, 0), Pt(10, 0)}
	sum, max := facilityCost(demands, fac)
	// (0,0)→0, (3,4)→5 (to origin), (10,0)→0.
	if math.Abs(sum-5) > 1e-9 || math.Abs(max-5) > 1e-9 {
		t.Fatalf("cost (%v,%v), want (5,5)", sum, max)
	}
}
