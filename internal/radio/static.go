package radio

import (
	"slices"

	"roborepair/internal/geom"
)

// Static neighbor sets. A sensor never moves, so the stations in range of
// its broadcasts only change when a station is attached, detached or moved
// near it. Each static sender therefore caches, on its first broadcast,
// the ID-sorted static stations within its range whatever their activity;
// a send filters that set by the activity cache and merges in the mobile
// stations, which are checked live. The result is exactly the grid query's
// (inRangeAppend) in the same order, without hashing or sorting.
//
// The contract that keeps a set exact:
//   - static stations move only through Moved, like the cached positions;
//   - Attach, Detach and Moved of a static station drop every set that
//     holds it or should hold it, the station's own included (see
//     invalidateAround);
//   - a set is rebuilt when its sender's range differs from the one it was
//     built for;
//   - a mobile station counts when its grid cell lies in the sender's cell
//     window and its live RadioPos is in range — the grid's membership rule.

// staticSet is one sender's cached static neighborhood: the IDs
// arena[off:off+n], in a slot of cap IDs.
type staticSet struct {
	off, n, cap int32
	// rng is the range the set was built for; 0 marks it unbuilt.
	rng float64
}

// staticAppend appends the active stations within r of the static sender
// id (positioned at p) to dst in ID order: its static set filtered by
// activity, merged with the mobile stations in range.
func (m *Medium) staticAppend(dst []neighbor, id NodeID, p geom.Point, r float64) []neighbor {
	set := m.staticSetOf(id, p, r)
	lo := m.keyOf(geom.Pt(p.X-r, p.Y-r))
	hi := m.keyOf(geom.Pt(p.X+r, p.Y+r))
	r2 := r * r
	mob := m.mobiles
	for _, sid := range m.arena[set.off : set.off+set.n] {
		nid := NodeID(sid)
		for len(mob) > 0 && mob[0] < nid {
			dst = m.appendMobile(dst, mob[0], p, r2, lo, hi)
			mob = mob[1:]
		}
		if m.active[nid] {
			dst = append(dst, neighbor{id: nid, st: m.stations[nid]})
		}
	}
	for _, mid := range mob {
		dst = m.appendMobile(dst, mid, p, r2, lo, hi)
	}
	return dst
}

// appendMobile appends mobile station id when the grid query centred on p
// would find it: active, its grid cell inside [lo, hi], its live position
// within sqrt(r2).
func (m *Medium) appendMobile(dst []neighbor, id NodeID, p geom.Point, r2 float64, lo, hi cellKey) []neighbor {
	if !m.active[id] {
		return dst
	}
	if k := m.cell[id]; k.cx < lo.cx || k.cx > hi.cx || k.cy < lo.cy || k.cy > hi.cy {
		return dst
	}
	st := m.stations[id]
	if p.Dist2(st.RadioPos()) > r2 {
		return dst
	}
	return append(dst, neighbor{id: id, st: st})
}

// StaticPos returns the position the medium caches for id and whether id
// is an attached static station. A static station's position is fixed
// once attached (only Moved or a re-Attach changes it, and sensors do
// neither), so a caller that saw ok may read the position again later
// instead of storing it; a detached station keeps the position it had.
func (m *Medium) StaticPos(id NodeID) (geom.Point, bool) {
	if id < 0 || int(id) >= len(m.pos) {
		return geom.Point{}, false
	}
	return m.pos[id], m.stations[id] != nil && !m.mobile[id]
}

// StaticDegree returns the size of the static set that id's broadcasts are
// served from: the static stations, active or not, within its range of its
// position. A static sender's neighborhood is fixed, so this bounds the
// peers it can ever hear at once. The set is built now when the sender has
// none yet, and its first broadcast then reuses it. It returns 0 for a
// mobile or unattached station.
//
// A station may call it from inside a delivery: a build only appends to
// the arena, and no broadcast reads the arena while it delivers (its
// receivers were copied into its delivery buffer first).
func (m *Medium) StaticDegree(id NodeID) int {
	st := m.station(id)
	if st == nil || m.mobile[id] {
		return 0
	}
	r := st.RadioRange()
	if r <= 0 {
		return 0
	}
	return int(m.staticSetOf(id, m.pos[id], r).n)
}

// staticSetOf returns the static set of sender id for range r, building it
// from the grid when the sender has none for that range. A rebuilt set
// reuses its old slot when it fits and otherwise moves to the arena's end.
func (m *Medium) staticSetOf(id NodeID, p geom.Point, r float64) staticSet {
	if int(id) >= len(m.statics) {
		m.statics = append(m.statics, make([]staticSet, len(m.stations)-len(m.statics))...)
	}
	s := &m.statics[id]
	if s.rng == r {
		return *s
	}
	start := len(m.arena)
	m.arena = m.appendStatics(m.arena, p, r, id)
	n := int32(len(m.arena) - start)
	if n <= s.cap {
		copy(m.arena[s.off:], m.arena[start:])
		m.arena = m.arena[:start]
	} else {
		m.arenaDead += int(s.cap)
		s.off, s.cap = int32(start), n
	}
	s.n, s.rng = n, r
	m.cacheRange = max(m.cacheRange, r)
	if m.arenaDead > 1024 && 2*m.arenaDead > len(m.arena) {
		m.compactArena()
	}
	return m.statics[id]
}

// appendStatics appends the IDs of the static stations (active or not)
// that the grid query centred on p with radius r finds, excluding
// exclude, in ascending order.
func (m *Medium) appendStatics(dst []int32, p geom.Point, r float64, exclude NodeID) []int32 {
	base := len(dst)
	r2 := r * r
	lo := m.keyOf(geom.Pt(p.X-r, p.Y-r))
	hi := m.keyOf(geom.Pt(p.X+r, p.Y+r))
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for _, id := range m.grid[cellKey{cx, cy}] {
				if id == exclude || m.mobile[id] {
					continue
				}
				if p.Dist2(m.pos[id]) <= r2 {
					dst = append(dst, int32(id))
				}
			}
		}
	}
	slices.Sort(dst[base:])
	return dst
}

// compactArena copies the built sets into a fresh arena, dropping the
// slots of unbuilt ones and the space abandoned by sets that outgrew their
// slot.
func (m *Medium) compactArena() {
	live := 0
	for _, s := range m.statics {
		if s.rng != 0 {
			live += int(s.n)
		}
	}
	arena := make([]int32, 0, live)
	for i := range m.statics {
		s := &m.statics[i]
		if s.rng == 0 {
			*s = staticSet{}
			continue
		}
		off := int32(len(arena))
		arena = append(arena, m.arena[s.off:s.off+s.n]...)
		s.off, s.cap = off, s.n
	}
	m.arena, m.arenaDead = arena, 0
}

// invalidateAround marks unbuilt every static set that contains a static
// station at p or would contain one there: a set built at q for range r
// holds p exactly when q.Dist2(p) <= r*r, the test its build applied. The
// sets' owners are found in the grid cells within the largest range any
// set was built for, widened by one cell so rounding at the window edge
// cannot miss one.
func (m *Medium) invalidateAround(p geom.Point) {
	if m.cacheRange == 0 {
		return
	}
	r := m.cacheRange
	lo := m.keyOf(geom.Pt(p.X-r, p.Y-r))
	hi := m.keyOf(geom.Pt(p.X+r, p.Y+r))
	for cx := lo.cx - 1; cx <= hi.cx+1; cx++ {
		for cy := lo.cy - 1; cy <= hi.cy+1; cy++ {
			for _, id := range m.grid[cellKey{cx, cy}] {
				if int(id) >= len(m.statics) {
					continue
				}
				if s := &m.statics[id]; s.rng != 0 && m.pos[id].Dist2(p) <= s.rng*s.rng {
					s.rng = 0
				}
			}
		}
	}
}
