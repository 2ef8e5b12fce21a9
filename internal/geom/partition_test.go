package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSquarePartition4(t *testing.T) {
	bounds := Square(Pt(0, 0), 400)
	pt, err := NewPartition(PartitionSquare, bounds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Centers) != 4 {
		t.Fatalf("K = %d", len(pt.Centers))
	}
	wantCenters := map[Point]bool{
		Pt(100, 100): true, Pt(300, 100): true,
		Pt(100, 300): true, Pt(300, 300): true,
	}
	for _, c := range pt.Centers {
		if !wantCenters[c] {
			t.Fatalf("unexpected center %v", c)
		}
	}
	for _, cell := range pt.Cells {
		if !almostEq(cell.Area(), 200*200) {
			t.Fatalf("cell area = %v, want 40000", cell.Area())
		}
	}
}

func TestSquarePartition9And16(t *testing.T) {
	for _, k := range []int{9, 16} {
		side := 200.0 * float64(isqrt(k))
		bounds := Square(Pt(0, 0), side)
		pt, err := NewPartition(PartitionSquare, bounds, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(pt.Centers) != k {
			t.Fatalf("k=%d: K = %d", k, len(pt.Centers))
		}
		var sum float64
		for _, cell := range pt.Cells {
			sum += cell.Area()
		}
		if !almostEq(sum, bounds.Area()) {
			t.Fatalf("k=%d: cells cover %v of %v", k, sum, bounds.Area())
		}
	}
}

func isqrt(n int) int {
	for i := 1; i <= n; i++ {
		if i*i == n {
			return i
		}
	}
	return 0
}

func TestPartitionOwnerMatchesCell(t *testing.T) {
	bounds := Square(Pt(0, 0), 600)
	pt, err := NewPartition(PartitionSquare, bounds, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := Pt(r.Float64()*600, r.Float64()*600)
		owner := pt.OwnerOf(p)
		if !pt.Cells[owner].Contains(p) {
			t.Fatalf("owner cell %d does not contain %v", owner, p)
		}
	}
}

func TestHexPartitionCoversField(t *testing.T) {
	bounds := Square(Pt(0, 0), 800)
	pt, err := NewPartition(PartitionHex, bounds, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Centers) != 16 {
		t.Fatalf("K = %d", len(pt.Centers))
	}
	var sum float64
	for i, cell := range pt.Cells {
		if cell == nil {
			t.Fatalf("hex cell %d is nil", i)
		}
		sum += cell.Area()
	}
	if !almostEq(sum/bounds.Area(), 1) {
		t.Fatalf("hex cells cover %v of %v", sum, bounds.Area())
	}
	for i, c := range pt.Centers {
		if !bounds.Contains(c) {
			t.Fatalf("hex center %d = %v outside field", i, c)
		}
		if !pt.Cells[i].Contains(c) {
			t.Fatalf("hex cell %d does not contain its center", i)
		}
	}
}

func TestHexPartitionOffsetsAlternateRows(t *testing.T) {
	bounds := Square(Pt(0, 0), 400)
	pt, err := NewPartition(PartitionHex, bounds, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 centers have x=100,300; row 1 are offset by half a cell.
	if pt.Centers[0].X == pt.Centers[2].X {
		t.Fatalf("rows not offset: %v vs %v", pt.Centers[0], pt.Centers[2])
	}
}

func TestPartitionErrors(t *testing.T) {
	bounds := Square(Pt(0, 0), 100)
	if _, err := NewPartition(PartitionSquare, bounds, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewPartition(PartitionSquare, bounds, -3); err == nil {
		t.Error("negative k should fail")
	}
	if _, err := NewPartition(PartitionKind(99), bounds, 4); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestPartitionKindString(t *testing.T) {
	if PartitionSquare.String() != "square" {
		t.Error("square name")
	}
	if PartitionHex.String() != "hex" {
		t.Error("hex name")
	}
	if PartitionKind(42).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestGridShapeNonSquareCounts(t *testing.T) {
	bounds := Square(Pt(0, 0), 100)
	for _, k := range []int{2, 6, 12} {
		pt, err := NewPartition(PartitionSquare, bounds, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(pt.Centers) != k {
			t.Fatalf("k=%d produced %d cells", k, len(pt.Centers))
		}
	}
}

// Property: for any k up to 25, the square partition tiles the field (areas
// sum to the field area) and each cell contains its own center.
func TestPropertySquarePartitionTiles(t *testing.T) {
	prop := func(kRaw uint8) bool {
		k := int(kRaw%25) + 1
		bounds := Square(Pt(0, 0), 500)
		pt, err := NewPartition(PartitionSquare, bounds, k)
		if err != nil {
			return false
		}
		var sum float64
		for i, cell := range pt.Cells {
			if !cell.Contains(pt.Centers[i]) {
				return false
			}
			sum += cell.Area()
		}
		return almostEq(sum/bounds.Area(), 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
