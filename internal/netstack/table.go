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

// peer is a table entry for a static station heard at exactly the
// position the medium caches for it: the location is the medium's, so the
// entry stores only what the medium does not know.
type peer struct {
	ID        radio.NodeID
	LastHeard sim.Time
}

// locatedSlots is the room a table's located list is made with: robots
// pass through a sensor's range one or two at a time at the paper's fleet
// sizes.
const locatedSlots = 2

// NeighborTable tracks a node's one-hop neighbors in ascending ID order:
// lookups binary-search it, and iteration order is deterministic without
// sorting.
//
// A static sensor's neighbors are almost all static sensors heard where
// the medium has them, so the table keeps two ID-ascending lists with
// disjoint IDs. An entry whose heard location equals, bit for bit, the
// position the medium caches for an attached static station is a 16 B
// peer whose location is read back from the medium. Every other entry —
// a robot, or a peer heard somewhere else (a replayed or corrupted
// beacon) — keeps its own location in the located list, which is made
// on first use. Readers see the merge of both through View.
//
// The zero NeighborTable has no medium and keeps every entry located;
// NewNeighborTable binds one. Reserve sizes the peer list ahead of its
// first insertion.
type NeighborTable struct {
	peers   []peer
	located *[]Neighbor
	medium  *radio.Medium
}

// NewNeighborTable returns an empty table that places static peers with
// m's cached positions.
func NewNeighborTable(m *radio.Medium) NeighborTable {
	return NeighborTable{medium: m}
}

// Medium returns the medium the table reads static positions from (nil
// for a table built without one).
func (t *NeighborTable) Medium() *radio.Medium { return t.medium }

// Reserve makes room for n static peers without regrowth; it never
// shrinks the table and never changes its contents.
func (t *NeighborTable) Reserve(n int) {
	if n > cap(t.peers) {
		t.peers = slices.Grow(t.peers, n-len(t.peers))
	}
}

// Cap reports how many static peers the table holds before its storage
// grows.
func (t *NeighborTable) Cap() int { return cap(t.peers) }

// list returns the located entries (nil until the first one).
func (t *NeighborTable) list() []Neighbor {
	if t.located == nil {
		return nil
	}
	return *t.located
}

// atStatic reports whether loc is, bit for bit, the position the medium
// caches for id as an attached static station.
func (t *NeighborTable) atStatic(id radio.NodeID, loc geom.Point) bool {
	if t.medium == nil {
		return false
	}
	p, ok := t.medium.StaticPos(id)
	return ok && math.Float64bits(p.X) == math.Float64bits(loc.X) &&
		math.Float64bits(p.Y) == math.Float64bits(loc.Y)
}

// findPeer returns the index of id's peer entry, or where it would be
// inserted, and whether it is present.
func (t *NeighborTable) findPeer(id radio.NodeID) (int, bool) {
	lo, hi := 0, len(t.peers)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if t.peers[h].ID < id {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(t.peers) && t.peers[lo].ID == id
}

// findLocated is findPeer for the located list.
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

// Upsert records that id was heard at loc at time now.
func (t *NeighborTable) Upsert(id radio.NodeID, loc geom.Point, now sim.Time) {
	if t.atStatic(id, loc) {
		i, ok := t.findPeer(id)
		if ok {
			t.peers[i].LastHeard = now
			return
		}
		if j, ok := t.findLocated(id); ok {
			*t.located = slices.Delete(*t.located, j, j+1)
		}
		t.peers = slices.Insert(t.peers, i, peer{ID: id, LastHeard: now})
		return
	}
	if i, ok := t.findPeer(id); ok {
		t.peers = slices.Delete(t.peers, i, i+1)
	}
	if t.located == nil {
		// One allocation holds the list's header and its first slots.
		l := &struct {
			entries []Neighbor
			room    [locatedSlots]Neighbor
		}{}
		l.entries = l.room[:0]
		t.located = &l.entries
	}
	n := Neighbor{ID: id, Loc: loc, LastHeard: now}
	j, ok := t.findLocated(id)
	if ok {
		(*t.located)[j] = n
		return
	}
	*t.located = slices.Insert(*t.located, j, n)
}

// Remove deletes a neighbor (e.g. after its failure is detected).
func (t *NeighborTable) Remove(id radio.NodeID) {
	if i, ok := t.findPeer(id); ok {
		t.peers = slices.Delete(t.peers, i, i+1)
		return
	}
	if j, ok := t.findLocated(id); ok {
		*t.located = slices.Delete(*t.located, j, j+1)
	}
}

// expand returns a peer entry with its location read from the medium.
func (t *NeighborTable) expand(p peer) Neighbor {
	pos, _ := t.medium.StaticPos(p.ID)
	return Neighbor{ID: p.ID, Loc: pos, LastHeard: p.LastHeard}
}

// Len reports the number of entries.
func (t *NeighborTable) Len() int { return len(t.peers) + len(t.list()) }

// Purge removes the entries not heard since the deadline, except those
// keep accepts. keep sees each stale entry in ascending ID order and
// returns the entry to keep — refreshed if it likes (its location and
// LastHeard, never its ID) — and true, or false to drop it. Entries pass
// by value, so offering one allocates nothing. A kept entry whose
// location changes form — a peer moved off its static position, or a
// located entry refreshed onto one — is re-filed.
func (t *NeighborTable) Purge(deadline sim.Time, keep func(n Neighbor) (Neighbor, bool)) {
	l := t.list()
	var refile []Neighbor // kept entries changing lists: rare, so unsized
	pk, lk := 0, 0
	i, j := 0, 0
	for i < len(t.peers) || j < len(l) {
		if j == len(l) || (i < len(t.peers) && t.peers[i].ID < l[j].ID) {
			p := t.peers[i]
			i++
			if p.LastHeard >= deadline {
				t.peers[pk] = p
				pk++
				continue
			}
			n, ok := keep(t.expand(p))
			if !ok {
				continue
			}
			if t.atStatic(n.ID, n.Loc) {
				t.peers[pk] = peer{ID: n.ID, LastHeard: n.LastHeard}
				pk++
			} else {
				refile = append(refile, n)
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
		if !t.atStatic(n.ID, n.Loc) {
			l[lk] = n
			lk++
		} else {
			refile = append(refile, n)
		}
	}
	t.peers = t.peers[:pk]
	if t.located != nil {
		*t.located = l[:lk]
	}
	for _, n := range refile {
		t.Upsert(n.ID, n.Loc, n.LastHeard)
	}
}

// View returns a read-only view of the table's entries in ascending ID
// order. It copies nothing and is valid only until the next Upsert,
// Remove or Purge: a caller that mutates the table while still
// needing entries copies them out first, as the neighbor watch does
// before Purge.
func (t *NeighborTable) View() NeighborView {
	return NeighborView{peers: t.peers, located: t.list(), medium: t.medium}
}

// NeighborView is a read-only, ID-ascending sequence of neighbors: a
// table's peers merged with its located entries, a plain list, or the
// result of a medium range query (ranged, which never comes with peers or
// located entries).
type NeighborView struct {
	peers   []peer
	located []Neighbor
	ranged  []radio.RangeEntry
	medium  *radio.Medium
}

// Len reports the number of neighbors in the view.
func (v NeighborView) Len() int { return len(v.peers) + len(v.located) + len(v.ranged) }

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
	if it.i < len(v.peers) && (it.j == len(v.located) || v.peers[it.i].ID < v.located[it.j].ID) {
		p := v.peers[it.i]
		it.i++
		pos, _ := v.medium.StaticPos(p.ID)
		return Neighbor{ID: p.ID, Loc: pos, LastHeard: p.LastHeard}, true
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
