package geom

// Facility-location solvers for mule coordination (Hermelin et al.,
// arXiv:1702.04142): place k facilities over a set of demand points so
// idle robots can park where failures cluster. Two classic objectives
// are provided — k-median (minimize summed distance, solved by
// farthest-point seeding plus Lloyd iterations with Weiszfeld medians)
// and k-center (minimize worst-case distance, solved by the greedy
// 2-approximation). Both are deterministic: no randomness, stable
// iteration order, fixed iteration counts — so same inputs always yield
// the same facilities, which the simulator's bit-identical replay
// machinery depends on.

// facilityIters bounds the Lloyd and Weiszfeld refinement loops. The
// loops converge long before this on realistic ledgers; a fixed bound
// keeps the solver deterministic and O(iters·k·n).
const facilityIters = 32

// weiszfeldEps terminates a Weiszfeld iteration when the step falls
// below this displacement (meters).
const weiszfeldEps = 1e-6

// KMedian places k facilities minimizing the summed Euclidean distance
// from each demand point to its nearest facility. Seeding is
// farthest-point traversal from the first demand (deterministic), then
// Lloyd iterations reassign demands and move each facility to the
// geometric median (Weiszfeld) of its cluster. k is clamped to
// [1, len(demands)]; an empty demand set yields nil.
func KMedian(demands []Point, k int) []Point {
	centers := seedFarthest(demands, k)
	if len(centers) == 0 {
		return nil
	}
	assign := make([]int, len(demands))
	for iter := 0; iter < facilityIters; iter++ {
		if !assignNearest(demands, centers, assign) && iter > 0 {
			break
		}
		for c := range centers {
			centers[c] = geometricMedian(demands, assign, c, centers[c])
		}
	}
	return centers
}

// KMedianFrom is KMedian warm-started from an initial placement instead
// of farthest-point seeding: Lloyd iterations refine the given
// facilities against the demands. Callers re-solving over a sliding
// window of demands use this to keep successive solutions near each
// other (a fixed point of the window) instead of jumping to a fresh
// configuration every solve. The initial slice is not mutated. Empty
// demands or an empty initial placement yield nil.
func KMedianFrom(demands, initial []Point) []Point {
	if len(demands) == 0 || len(initial) == 0 {
		return nil
	}
	centers := append([]Point(nil), initial...)
	assign := make([]int, len(demands))
	for iter := 0; iter < facilityIters; iter++ {
		if !assignNearest(demands, centers, assign) && iter > 0 {
			break
		}
		for c := range centers {
			centers[c] = geometricMedian(demands, assign, c, centers[c])
		}
	}
	return centers
}

// KCenter places k facilities minimizing the maximum Euclidean distance
// from any demand point to its nearest facility, using the greedy
// farthest-point 2-approximation (Gonzalez). k is clamped to
// [1, len(demands)]; an empty demand set yields nil.
func KCenter(demands []Point, k int) []Point {
	return seedFarthest(demands, k)
}

// seedFarthest returns min(k, len(demands)) seeds by farthest-point
// traversal: the first demand, then repeatedly the demand farthest from
// the chosen set. Ties break to the lowest index, so the result is a
// pure function of the input order.
func seedFarthest(demands []Point, k int) []Point {
	if len(demands) == 0 || k < 1 {
		return nil
	}
	if k > len(demands) {
		k = len(demands)
	}
	centers := make([]Point, 0, k)
	centers = append(centers, demands[0])
	// dist2[i] tracks each demand's squared distance to the chosen set.
	dist2 := make([]float64, len(demands))
	for i, d := range demands {
		dist2[i] = d.Dist2(centers[0])
	}
	for len(centers) < k {
		best, bestD := -1, -1.0
		for i, d2 := range dist2 {
			if d2 > bestD {
				best, bestD = i, d2
			}
		}
		if bestD == 0 {
			break // all remaining demands coincide with a chosen center
		}
		centers = append(centers, demands[best])
		for i, d := range demands {
			if d2 := d.Dist2(demands[best]); d2 < dist2[i] {
				dist2[i] = d2
			}
		}
	}
	return centers
}

// assignNearest writes each demand's nearest-center index into assign
// (ties to the lowest center index) and reports whether any assignment
// changed.
func assignNearest(demands, centers []Point, assign []int) bool {
	changed := false
	for i, d := range demands {
		best, bestD2 := 0, d.Dist2(centers[0])
		for c := 1; c < len(centers); c++ {
			if d2 := d.Dist2(centers[c]); d2 < bestD2 {
				best, bestD2 = c, d2
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// geometricMedian returns the Weiszfeld geometric median of the demands
// assigned to cluster c, starting from cur. An empty cluster keeps cur;
// a singleton returns its point. A demand coinciding with the current
// iterate keeps the iterate fixed (the standard singularity guard),
// which is also the correct median when that point carries the cluster.
func geometricMedian(demands []Point, assign []int, c int, cur Point) Point {
	var first Point
	n := 0
	for i, a := range assign {
		if a == c {
			if n == 0 {
				first = demands[i]
			}
			n++
		}
	}
	if n == 0 {
		return cur
	}
	if n == 1 {
		return first
	}
	m := cur
	for iter := 0; iter < facilityIters; iter++ {
		var sx, sy, sw float64
		singular := false
		for i, a := range assign {
			if a != c {
				continue
			}
			d := demands[i].Dist(m)
			if d == 0 {
				singular = true
				continue
			}
			w := 1 / d
			sx += demands[i].X * w
			sy += demands[i].Y * w
			sw += w
		}
		if sw == 0 {
			return m // every demand coincides with the iterate
		}
		next := Pt(sx/sw, sy/sw)
		if singular && next.Dist(m) < weiszfeldEps {
			return m
		}
		if next.Dist(m) < weiszfeldEps {
			return next
		}
		m = next
	}
	return m
}
