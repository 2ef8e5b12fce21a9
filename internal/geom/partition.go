package geom

import (
	"encoding/json"
	"fmt"
	"math"
)

// Area partitions for the fixed distributed manager algorithm. The paper
// partitions the field into k equal squares (one robot each) and notes
// that a hexagonal partition shows "negligible difference" — reproduced
// here as the ABL-HEX ablation.

// PartitionKind selects the fixed algorithm's area partition shape.
type PartitionKind int

const (
	// PartitionSquare tiles the field with equal squares (paper default).
	PartitionSquare PartitionKind = iota + 1
	// PartitionHex tiles the field with a hexagonal lattice of centers;
	// each subarea is the Voronoi cell of its center (a hexagon clipped
	// to the field boundary).
	PartitionHex
)

// String names the partition kind.
func (k PartitionKind) String() string {
	switch k {
	case PartitionSquare:
		return "square"
	case PartitionHex:
		return "hex"
	default:
		return fmt.Sprintf("PartitionKind(%d)", int(k))
	}
}

// MarshalJSON encodes the kind as its name.
func (k PartitionKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes "square" or "hex".
func (k *PartitionKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "square":
		*k = PartitionSquare
	case "hex":
		*k = PartitionHex
	default:
		return fmt.Errorf("geom: unknown partition kind %q", s)
	}
	return nil
}

// Partition is a division of a field into k subareas with one designated
// center (the robot's home position) per subarea.
type Partition struct {
	Bounds  Rect
	Centers []Point
	Cells   []Polygon
}

// OwnerOf returns the index of the subarea containing p. With Voronoi-cell
// subareas this is simply the nearest center.
func (pt *Partition) OwnerOf(p Point) int { return Nearest(p, pt.Centers) }

// NewPartition divides bounds into k subareas of the given kind. For the
// square kind k must be a perfect square matching a rows×cols grid of the
// (square) field, mirroring the paper's use of k ∈ {4, 9, 16}; for
// non-square k it falls back to the most balanced rows×cols grid.
func NewPartition(kind PartitionKind, bounds Rect, k int) (*Partition, error) {
	if k <= 0 {
		return nil, fmt.Errorf("geom: partition size %d not positive", k)
	}
	switch kind {
	case PartitionSquare:
		return squarePartition(bounds, k), nil
	case PartitionHex:
		return hexPartition(bounds, k), nil
	default:
		return nil, fmt.Errorf("geom: unknown partition kind %d", int(kind))
	}
}

// gridShape picks rows×cols = k with the aspect closest to the field's.
func gridShape(bounds Rect, k int) (rows, cols int) {
	best := math.Inf(1)
	aspect := bounds.Width() / bounds.Height()
	for r := 1; r <= k; r++ {
		if k%r != 0 {
			continue
		}
		c := k / r
		a := float64(c) / float64(r)
		if d := math.Abs(math.Log(a / aspect)); d < best {
			best = d
			rows, cols = r, c
		}
	}
	return rows, cols
}

func squarePartition(bounds Rect, k int) *Partition {
	rows, cols := gridShape(bounds, k)
	w := bounds.Width() / float64(cols)
	h := bounds.Height() / float64(rows)
	pt := &Partition{
		Bounds:  bounds,
		Centers: make([]Point, 0, k),
		Cells:   make([]Polygon, 0, k),
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cell := Rect{
				Min: Point{bounds.Min.X + float64(c)*w, bounds.Min.Y + float64(r)*h},
				Max: Point{bounds.Min.X + float64(c+1)*w, bounds.Min.Y + float64(r+1)*h},
			}
			pt.Centers = append(pt.Centers, cell.Center())
			pt.Cells = append(pt.Cells, cell.Polygon())
		}
	}
	return pt
}

// hexPartition lays k centers on a hexagonal (offset-row) lattice scaled
// to the field and takes each subarea as the Voronoi cell of its center.
func hexPartition(bounds Rect, k int) *Partition {
	rows, cols := gridShape(bounds, k)
	w := bounds.Width() / float64(cols)
	h := bounds.Height() / float64(rows)
	centers := make([]Point, 0, k)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x := bounds.Min.X + (float64(c)+0.5)*w
			if r%2 == 1 {
				// Offset odd rows by half a cell, wrapping inside the field.
				x += w / 2
				if x > bounds.Max.X {
					x -= w
				}
			}
			y := bounds.Min.Y + (float64(r)+0.5)*h
			centers = append(centers, Point{x, y})
		}
	}
	return &Partition{
		Bounds:  bounds,
		Centers: centers,
		Cells:   VoronoiCells(centers, bounds),
	}
}
