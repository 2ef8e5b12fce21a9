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
//
// The sets live in one int32 arena. A list, once written, is never written
// again: a rebuild appends the new list, and compaction copies the live
// lists into a fresh arena. So a slice StaticSet returned stays readable,
// and the list a sender's table is aligned with (its acknowledged list)
// survives rebuilds until the sender reads its set again.

// staticSet is one sender's cached static neighborhood: the IDs
// arena[off:off+n]. ackOff and ackN locate the list StaticSet last
// returned for the sender; while that differs from the current list it is
// kept, so state aligned with it can be remapped.
type staticSet struct {
	off, n       int32
	ackOff, ackN int32
	// rng is the range the set was built for: 0 before its first build,
	// negative once dropped (see invalidateAround).
	rng float64
}

// acked reports whether the current list is the one StaticSet last
// returned.
func (s *staticSet) acked() bool { return s.off == s.ackOff && s.n == s.ackN }

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

// StaticSet returns the IDs, in ascending order, of the static set that
// id's broadcasts are served from: the static stations, active or not,
// within its range of its position. A static sender's neighborhood is
// fixed, so these are the only static stations it can hear at their own
// positions. The set is built now when id has none, and its next
// broadcast reuses it; a built set stands until a change near id drops it
// or a broadcast at another range rebuilds it. For a station that is not
// attached, is mobile or has no range, nothing is built, and the list it
// last had (nil if none) is returned.
//
// Per-peer state kept aligned with the list — a neighbor table's LastHeard
// slots — follows it through changes: when the list differs from the one
// the previous call returned, changed is true and prev is that earlier
// list, so the caller can remap; the next call reports no change. A set
// should therefore have one reader, its owner's table. The returned slices
// are never written again.
//
// A station may call it from inside a delivery: a build only appends to
// the arena, and no broadcast reads the arena while it delivers (its
// receivers were copied into its delivery buffer first).
func (m *Medium) StaticSet(id NodeID) (ids, prev []int32, changed bool) {
	if ids, ok := m.SeenStaticSet(id); ok {
		return ids, nil, false
	}
	if st := m.station(id); st != nil && !m.mobile[id] {
		if r := st.RadioRange(); r > 0 {
			m.staticSetOf(id, m.pos[id], r)
		}
	}
	if id < 0 || int(id) >= len(m.statics) {
		return nil, nil, false
	}
	s := &m.statics[id]
	ids = m.arena[s.off : s.off+s.n]
	if s.acked() {
		return ids, nil, false
	}
	prev = m.arena[s.ackOff : s.ackOff+s.ackN]
	m.arenaDead += int(s.ackN)
	s.ackOff, s.ackN = s.off, s.n
	return ids, prev, true
}

// SeenStaticSet is StaticSet's fast path, small enough to inline into a
// reader that calls it once per reception: it returns id's set and true
// when the set is built, not dropped, and the list the previous StaticSet
// call returned, so that StaticSet would report no change. Otherwise it
// returns false, and the caller calls StaticSet. It looks up no station,
// so a range change (rare; sensors never change range) waits for the
// sender's next broadcast to rebuild the set.
func (m *Medium) SeenStaticSet(id NodeID) ([]int32, bool) {
	if uint(id) < uint(len(m.statics)) {
		if s := &m.statics[id]; s.rng > 0 && s.acked() {
			return m.arena[s.off : s.off+s.n], true
		}
	}
	return nil, false
}

// staticSetOf returns the static set of sender id for range r, building it
// from the grid when the sender has none for that range. The new list goes
// to the arena's end; the one it replaces is abandoned unless it is the
// sender's acknowledged list.
func (m *Medium) staticSetOf(id NodeID, p geom.Point, r float64) staticSet {
	if int(id) >= len(m.statics) {
		m.statics = append(m.statics, make([]staticSet, len(m.stations)-len(m.statics))...)
	}
	s := &m.statics[id]
	if s.rng == r {
		return *s
	}
	first := s.rng == 0
	if !s.acked() {
		m.arenaDead += int(s.n)
	}
	start := len(m.arena)
	m.appendStatics(p, r, id, first)
	s.off, s.n, s.rng = int32(start), int32(len(m.arena)-start), r
	if first {
		m.builtSets++
		m.builtIDs += int(s.n)
	}
	m.cacheRange = max(m.cacheRange, r)
	if m.arenaDead > 1024 && 2*m.arenaDead > len(m.arena) {
		m.compactArena()
	}
	return m.statics[id]
}

// appendStatics appends to the arena the IDs of the static stations
// (active or not) that the grid query centred on p with radius r finds,
// excluding exclude, in ascending order; first marks the sender's first
// build.
func (m *Medium) appendStatics(p geom.Point, r float64, exclude NodeID, first bool) {
	base := len(m.arena)
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
					if len(m.arena) == cap(m.arena) {
						m.growArena(first)
					}
					m.arena = append(m.arena, int32(id))
				}
			}
		}
	}
	slices.Sort(m.arena[base:])
}

// growArena makes room in a full arena. Every static station builds a set
// on its first broadcast, so while first builds fill the arena its final
// size is about the mean set size times the static stations: a first
// build grows it by the mean size of the sets built so far times the
// static stations with no set yet. A mean over a few sets can overshoot,
// so one growth at most doubles the arena; by the time the estimate is
// smaller than that, it rests on half the sets. A rebuild (after a
// replacement attached), or a build before any set exists, grows the
// arena as append would: the estimate does not count rebuilds.
func (m *Medium) growArena(first bool) {
	room := 0
	if unset := m.count - len(m.mobiles) - m.builtSets; first && unset > 0 && m.builtSets > 0 {
		room = min(len(m.arena), (m.builtIDs*unset+m.builtSets-1)/m.builtSets)
	}
	if room == 0 {
		m.arena = slices.Grow(m.arena, 1)
		return
	}
	arena := make([]int32, len(m.arena), len(m.arena)+room)
	copy(arena, m.arena)
	m.arena = arena
}

// compactArena copies each set's current list, and its acknowledged list
// when that differs, into a fresh arena, dropping the abandoned lists.
func (m *Medium) compactArena() {
	live := 0
	for i := range m.statics {
		s := &m.statics[i]
		live += int(s.n)
		if !s.acked() {
			live += int(s.ackN)
		}
	}
	arena := make([]int32, 0, live)
	for i := range m.statics {
		s := &m.statics[i]
		cur := m.arena[s.off : s.off+s.n]
		if s.acked() {
			s.ackOff = int32(len(arena))
		} else {
			ack := m.arena[s.ackOff : s.ackOff+s.ackN]
			s.ackOff = int32(len(arena))
			arena = append(arena, ack...)
		}
		s.off = int32(len(arena))
		arena = append(arena, cur...)
	}
	m.arena, m.arenaDead = arena, 0
}

// invalidateAround drops every built static set that contains a static
// station at p or would contain one there (its list stays for the owner's
// table until the rebuild): a set built at q for range r
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
				if s := &m.statics[id]; s.rng > 0 && m.pos[id].Dist2(p) <= s.rng*s.rng {
					s.rng = -1
				}
			}
		}
	}
}
