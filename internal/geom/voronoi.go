package geom

// Voronoi computation by half-plane clipping: the cell of site i inside a
// bounding rectangle is the rectangle clipped against the bisector of
// (i, j) for every other site j. This is O(n) per cell — more than fast
// enough for the handful of robots the paper coordinates (≤ 16) and
// robust, unlike a full Fortune sweep, against the degenerate co-circular
// configurations random deployments produce.

// VoronoiCell returns the Voronoi cell of sites[i] clipped to bounds.
// The result is nil when the cell is empty (possible only for coincident
// sites).
func VoronoiCell(sites []Point, i int, bounds Rect) Polygon {
	cell := bounds.Polygon()
	for j, s := range sites {
		if j == i || s.Eq(sites[i]) {
			continue
		}
		cell = cell.Clip(Bisector(sites[i], s))
		if cell == nil {
			return nil
		}
	}
	return cell
}

// VoronoiCells returns the bounded Voronoi cell of every site.
func VoronoiCells(sites []Point, bounds Rect) []Polygon {
	cells := make([]Polygon, len(sites))
	for i := range sites {
		cells[i] = VoronoiCell(sites, i, bounds)
	}
	return cells
}
