package netstack

import (
	"math"
	"slices"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

// Neighbor is one entry of a node's one-hop neighbor table, built from
// received beacons and location broadcasts.
type Neighbor struct {
	ID        radio.NodeID
	Loc       geom.Point
	LastHeard sim.Time
}

// Statics tells a table where its static peers are: the medium that caches
// their positions, and the static station (the table's owner) whose static
// set the table's slots follow. The zero Statics has no medium, and a
// table used with it keeps every entry located.
type Statics struct {
	Medium *radio.Medium
	Owner  radio.NodeID
}

// staticPos returns the position the medium caches for id and whether id
// is an attached static station.
func (st Statics) staticPos(id radio.NodeID) (geom.Point, bool) {
	if st.Medium == nil {
		return geom.Point{}, false
	}
	return st.Medium.StaticPos(id)
}

// atStatic reports whether loc is, bit for bit, the position the medium
// caches for id as an attached static station.
func (st Statics) atStatic(id radio.NodeID, loc geom.Point) bool {
	p, ok := st.staticPos(id)
	return ok && samePoint(p, loc)
}

// samePoint reports whether two points are equal bit for bit.
func samePoint(p, q geom.Point) bool {
	return math.Float64bits(p.X) == math.Float64bits(q.X) &&
		math.Float64bits(p.Y) == math.Float64bits(q.Y)
}

// pos returns the position the medium caches for a static peer.
func (st Statics) pos(id radio.NodeID) geom.Point {
	p, _ := st.Medium.StaticPos(id)
	return p
}

// notHeard marks a slot whose static peer is not in the table.
var notHeard = sim.Time(math.Inf(-1))

// locatedSlots is the room a table's located list is made with: robots
// pass through a sensor's range one or two at a time at the paper's fleet
// sizes.
const locatedSlots = 2

// NeighborTable tracks a node's one-hop neighbors in ascending ID order:
// lookups binary-search it, and iteration order is deterministic without
// sorting.
//
// A static sensor's neighbors are almost all static sensors heard where
// the medium has them, and the medium already keeps their IDs: the
// owner's static set (radio.Medium.StaticSet), an ID-ascending int32 list.
// So the table keeps one LastHeard slot per position of that list, notHeard
// where the peer is not in the table; an entry whose heard location equals,
// bit for bit, the position the medium caches for a member of the set
// lives in its slot, and its ID and location are read back from the
// medium. Every other entry — a robot, or a peer heard somewhere else (a
// replayed or corrupted beacon) — keeps its own location in the located
// list, which is made on first use. Slot and located IDs are disjoint;
// readers see the merge of both through View.
//
// The slots are made, one per member of the set, on the first insertion
// into one. When the set changes (a replacement attaches in range), every
// table operation first remaps them: a slot follows its ID, a new member
// starts not heard, and a heard entry whose ID left the set moves to the
// located list at the position the medium caches for it.
//
// The methods take the table's Statics, which a sensor shares with every
// other table of its world instead of storing. The zero NeighborTable is
// empty.
type NeighborTable struct {
	// heard holds the slots: heard[:n] for a static set of n members once
	// made. Its length counts the heard slots, so Len is O(1).
	heard   []sim.Time
	located *[]Neighbor
}

// Cap reports how many static slots the table holds before its storage
// grows.
func (t *NeighborTable) Cap() int { return cap(t.heard) }

// list returns the located entries (nil until the first one).
func (t *NeighborTable) list() []Neighbor {
	if t.located == nil {
		return nil
	}
	return *t.located
}

// sync returns the owner's static set and the table's slots for it, one
// per member (nil until made), remapping the slots first if the set
// changed since the table last read it.
func (t *NeighborTable) sync(st Statics) ([]int32, []sim.Time) {
	if st.Medium == nil {
		return nil, nil
	}
	// The common case, inlined: the set is the list the table last read.
	ids, seen := st.Medium.SeenStaticSet(st.Owner)
	if !seen {
		var prev []int32
		var changed bool
		ids, prev, changed = st.Medium.StaticSet(st.Owner)
		if changed && cap(t.heard) > 0 {
			t.remap(st, prev, ids)
		}
	}
	if cap(t.heard) == 0 {
		return ids, nil
	}
	return ids, t.heard[:len(ids)]
}

// remap moves the slots from the member list prev to ids: a slot follows
// its ID, a new member starts not heard, and a heard entry whose ID left
// the set is re-filed in the located list at the position View showed for
// it. The slots are compacted left in place, then spread right into their
// new positions, in the same storage unless the set outgrew it.
func (t *NeighborTable) remap(st Statics, prev, ids []int32) {
	old := t.heard[:len(prev)]
	heard := len(t.heard)
	var moved []Neighbor // rare: only a detached or moved station leaves a set
	k := 0
	for i, j := 0, 0; i < len(prev); i++ {
		for j < len(ids) && ids[j] < prev[i] {
			j++
		}
		if j < len(ids) && ids[j] == prev[i] {
			old[k] = old[i]
			k++
		} else if old[i] != notHeard {
			id := radio.NodeID(prev[i])
			moved = append(moved, Neighbor{ID: id, Loc: st.pos(id), LastHeard: old[i]})
			heard--
		}
	}
	next := old[:cap(old)]
	if len(ids) > cap(next) {
		// Grow as append would, so that the next replacements in range
		// find room. The spread below reads the slots from old.
		next = append(next, make([]sim.Time, len(ids)-cap(next))...)
	}
	next = next[:len(ids)]
	for i, j := len(prev)-1, len(ids)-1; j >= 0; j-- {
		for i >= 0 && prev[i] > ids[j] {
			i--
		}
		if i >= 0 && prev[i] == ids[j] {
			k--
			next[j] = old[k]
			i--
		} else {
			next[j] = notHeard
		}
	}
	t.heard = next[:heard]
	for _, n := range moved {
		t.putLocated(n)
	}
}

// member returns the index of id in the static set ids and whether it is
// a member.
func member(ids []int32, id radio.NodeID) (int, bool) {
	if id < 0 || id > math.MaxInt32 {
		return 0, false
	}
	x := int32(id)
	lo, hi := 0, len(ids)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ids[h] < x {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(ids) && ids[lo] == x
}

// makeSlots gives the table n slots, none heard, and returns them. They
// are made as append makes them, so the capacity fills the allocation's
// size class: often a slot or two of room for a replacement.
func (t *NeighborTable) makeSlots(n int) []sim.Time {
	slots := append([]sim.Time(nil), make([]sim.Time, n)...)
	for i := range slots {
		slots[i] = notHeard
	}
	t.heard = slots[:0]
	return slots
}

// unhear clears a heard slot.
func (t *NeighborTable) unhear(slots []sim.Time, i int) {
	if slots[i] != notHeard {
		slots[i] = notHeard
		t.heard = t.heard[:len(t.heard)-1]
	}
}

// findLocated returns the index of id's located entry, or where it would
// be inserted, and whether it is present.
func (t *NeighborTable) findLocated(id radio.NodeID) (int, bool) {
	l := t.list()
	lo, hi := 0, len(l)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if l[h].ID < id {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(l) && l[lo].ID == id
}

// putLocated inserts or replaces a located entry.
func (t *NeighborTable) putLocated(n Neighbor) {
	if t.located == nil {
		// One allocation holds the list's header and its first slots.
		l := &struct {
			entries []Neighbor
			room    [locatedSlots]Neighbor
		}{}
		l.entries = l.room[:0]
		t.located = &l.entries
	}
	j, ok := t.findLocated(n.ID)
	if ok {
		(*t.located)[j] = n
		return
	}
	*t.located = slices.Insert(*t.located, j, n)
}

// dropLocated deletes id's located entry, if any.
func (t *NeighborTable) dropLocated(id radio.NodeID) {
	if j, ok := t.findLocated(id); ok {
		*t.located = slices.Delete(*t.located, j, j+1)
	}
}

// Upsert records that id was heard at loc at time now.
func (t *NeighborTable) Upsert(st Statics, id radio.NodeID, loc geom.Point, now sim.Time) {
	ids, slots := t.sync(st)
	// Only an attached static station is a member of a synced set, so a
	// robot's update skips the search.
	if p, static := st.staticPos(id); static {
		i, in := member(ids, id)
		switch {
		case in && samePoint(p, loc):
			if slots == nil {
				slots = t.makeSlots(len(ids))
			}
			if slots[i] == notHeard {
				t.dropLocated(id)
				t.heard = t.heard[:len(t.heard)+1]
			}
			slots[i] = now
			return
		case in && slots != nil:
			t.unhear(slots, i)
		}
	}
	t.putLocated(Neighbor{ID: id, Loc: loc, LastHeard: now})
}

// Remove deletes a neighbor (e.g. after its failure is detected).
func (t *NeighborTable) Remove(st Statics, id radio.NodeID) {
	ids, slots := t.sync(st)
	if i, in := member(ids, id); in && slots != nil && slots[i] != notHeard {
		t.unhear(slots, i)
		return
	}
	t.dropLocated(id)
}

// Len reports the number of entries.
func (t *NeighborTable) Len() int { return len(t.heard) + len(t.list()) }

// Purge removes the entries not heard since the deadline, except those
// keep accepts. keep sees each stale entry in ascending ID order and
// returns the entry to keep — refreshed if it likes (its location and
// LastHeard, never its ID) — and true, or false to drop it. Entries pass
// by value, so offering one allocates nothing. A kept entry whose
// location changes form — a peer moved off its static position, or a
// located entry refreshed onto one — is re-filed.
func (t *NeighborTable) Purge(st Statics, deadline sim.Time, keep func(n Neighbor) (Neighbor, bool)) {
	ids, slots := t.sync(st)
	l := t.list()
	var refile []Neighbor // kept entries changing lists: rare, so unsized
	lk := 0
	i, j := 0, 0
	for {
		for i < len(slots) && slots[i] == notHeard {
			i++
		}
		if i == len(slots) && j == len(l) {
			break
		}
		if j == len(l) || (i < len(slots) && radio.NodeID(ids[i]) < l[j].ID) {
			at := slots[i]
			i++
			if at >= deadline {
				continue
			}
			id := radio.NodeID(ids[i-1])
			n, ok := keep(Neighbor{ID: id, Loc: st.pos(id), LastHeard: at})
			switch {
			case ok && st.atStatic(n.ID, n.Loc):
				slots[i-1] = n.LastHeard
			case ok:
				t.unhear(slots, i-1)
				refile = append(refile, n)
			default:
				t.unhear(slots, i-1)
			}
			continue
		}
		n := l[j]
		j++
		if n.LastHeard >= deadline {
			l[lk] = n
			lk++
			continue
		}
		n, ok := keep(n)
		if !ok {
			continue
		}
		if !st.atStatic(n.ID, n.Loc) {
			l[lk] = n
			lk++
		} else {
			refile = append(refile, n)
		}
	}
	if t.located != nil {
		*t.located = l[:lk]
	}
	for _, n := range refile {
		t.Upsert(st, n.ID, n.Loc, n.LastHeard)
	}
}

// View returns a read-only view of the table's entries in ascending ID
// order. It copies nothing and is valid only until the next Upsert,
// Remove, Purge or View: a caller that mutates the table while still
// needing entries copies them out first, as the neighbor watch does
// before Purge.
func (t *NeighborTable) View(st Statics) NeighborView {
	ids, slots := t.sync(st)
	if slots == nil {
		ids = nil
	}
	return NeighborView{ids: ids, heard: slots, n: len(t.heard), located: t.list(), medium: st.Medium}
}

// NeighborView is a read-only, ID-ascending sequence of neighbors: a
// table's heard slots merged with its located entries, a plain list, or
// the result of a medium range query (ranged, which never comes with
// slots or located entries).
type NeighborView struct {
	ids     []int32    // the owner's static set
	heard   []sim.Time // one slot per member of ids
	n       int        // the heard slots
	located []Neighbor
	ranged  []radio.RangeEntry
	medium  *radio.Medium
}

// Len reports the number of neighbors in the view.
func (v NeighborView) Len() int { return v.n + len(v.located) + len(v.ranged) }

// Iter returns an iterator positioned before the view's first neighbor.
func (v NeighborView) Iter() NeighborIter { return NeighborIter{v: v} }

// NeighborIter walks a NeighborView in ascending ID order.
type NeighborIter struct {
	v    NeighborView
	i, j int
}

// Next returns the next neighbor, or false once the view is exhausted.
func (it *NeighborIter) Next() (Neighbor, bool) {
	v := &it.v
	for it.i < len(v.heard) && v.heard[it.i] == notHeard {
		it.i++
	}
	if it.i < len(v.heard) && (it.j == len(v.located) || radio.NodeID(v.ids[it.i]) < v.located[it.j].ID) {
		id := radio.NodeID(v.ids[it.i])
		at := v.heard[it.i]
		it.i++
		pos, _ := v.medium.StaticPos(id)
		return Neighbor{ID: id, Loc: pos, LastHeard: at}, true
	}
	if it.j < len(v.located) {
		it.j++
		return v.located[it.j-1], true
	}
	// A ranged view has no located entries, so j indexes its list.
	if it.j < len(v.ranged) {
		e := v.ranged[it.j]
		it.j++
		return Neighbor{ID: e.ID, Loc: e.Loc}, true
	}
	return Neighbor{}, false
}
