package geom

// Planar subgraph construction for face-routing recovery. Greedy
// geographic forwarding can reach a local minimum (a "hole"); GFG/GPSR
// recover by walking the faces of a planar subgraph of the connectivity
// graph. The Gabriel graph is the classical localized planarization; it is
// computed here from a node's one-hop neighborhood only, exactly as a real
// node would.

// GabrielEdge reports whether the edge u–v belongs to the Gabriel graph of
// the point set: no witness point lies strictly inside the circle whose
// diameter is u–v.
func GabrielEdge(u, v Point, witnesses []Point) bool {
	mid := u.Mid(v)
	r2 := u.Dist2(v) / 4
	const eps = 1e-12
	for _, w := range witnesses {
		if w.Eq(u) || w.Eq(v) {
			continue
		}
		if mid.Dist2(w) < r2-eps {
			return false
		}
	}
	return true
}
