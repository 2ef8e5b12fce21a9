package netstack

import (
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

// NeighborTable tracks a node's one-hop neighbors in a slice kept in
// ascending ID order: lookups binary-search it, and iteration order is
// deterministic without sorting. The zero NeighborTable is an empty,
// ready-to-use table; Reserve sizes it ahead of its first insertion.
type NeighborTable struct {
	entries []Neighbor
}

// Reserve makes room for n entries without regrowth; it never shrinks
// the table and never changes its contents.
func (t *NeighborTable) Reserve(n int) {
	if n > cap(t.entries) {
		t.entries = slices.Grow(t.entries, n-len(t.entries))
	}
}

// Cap reports how many entries the table holds before its storage grows.
func (t *NeighborTable) Cap() int { return cap(t.entries) }

// find returns the index of id's entry, or where it would be inserted,
// and whether it is present.
func (t *NeighborTable) find(id radio.NodeID) (int, bool) {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if t.entries[h].ID < id {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(t.entries) && t.entries[lo].ID == id
}

// Upsert records that id was heard at loc at time now.
func (t *NeighborTable) Upsert(id radio.NodeID, loc geom.Point, now sim.Time) {
	n := Neighbor{ID: id, Loc: loc, LastHeard: now}
	i, ok := t.find(id)
	if ok {
		t.entries[i] = n
		return
	}
	t.entries = slices.Insert(t.entries, i, n)
}

// Remove deletes a neighbor (e.g. after its failure is detected).
func (t *NeighborTable) Remove(id radio.NodeID) {
	if i, ok := t.find(id); ok {
		t.entries = slices.Delete(t.entries, i, i+1)
	}
}

// Get returns the entry for id.
func (t *NeighborTable) Get(id radio.NodeID) (Neighbor, bool) {
	if i, ok := t.find(id); ok {
		return t.entries[i], true
	}
	return Neighbor{}, false
}

// Len reports the number of entries.
func (t *NeighborTable) Len() int { return len(t.entries) }

// Touch refreshes LastHeard for an existing entry without changing its
// location; it reports whether the entry existed.
func (t *NeighborTable) Touch(id radio.NodeID, now sim.Time) bool {
	i, ok := t.find(id)
	if ok {
		t.entries[i].LastHeard = now
	}
	return ok
}

// Purge removes the entries not heard since the deadline, except those
// keep accepts. keep sees each stale entry in ascending ID order and may
// refresh the entry it keeps (its location and LastHeard, never its ID).
func (t *NeighborTable) Purge(deadline sim.Time, keep func(n *Neighbor) bool) {
	kept := 0
	for i := range t.entries {
		n := &t.entries[i]
		if n.LastHeard >= deadline || keep(n) {
			t.entries[kept] = *n
			kept++
		}
	}
	t.entries = t.entries[:kept]
}

// All returns the table's entries in ascending ID order (deterministic
// iteration for the simulator). The slice is the table's own, not a copy:
// it is read-only, and valid only until the next Upsert, Remove, Touch or
// Purge. A caller that mutates the table while still needing entries
// copies them out first, as the neighbor watch does before Purge.
func (t *NeighborTable) All() []Neighbor { return t.entries }
