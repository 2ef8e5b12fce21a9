// Package broadcastopt implements the more efficient broadcast scheme the
// paper suggests in §4.3.2: "The high messaging overhead in the two
// distributed algorithms can be reduced by using more efficient broadcast
// schemes (e.g. [12]) which require only a subset of the sensors in each
// subarea to relay the location update messages."
//
// The scheme here is sender-designated angular relay selection, a
// localized position-based technique from the family surveyed by
// Stojmenovic and Wu [12]: a relaying sensor designates at most one
// forwarder per angular sector — the farthest neighbor in the sector,
// because its transmission disk adds the most new area. With six 60°
// sectors the designated disks cover the sender's entire 2-hop
// neighborhood in dense deployments, so coverage is preserved while the
// relay count per hop drops from "every neighbor" to at most six.
package broadcastopt

import (
	"math"
	"sort"

	"roborepair/internal/geom"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
)

// DefaultSectors is the standard six-sector configuration; 60° sectors
// with farthest-neighbor selection preserve flooding coverage on unit-disk
// graphs of the paper's density.
const DefaultSectors = 6

// SelectRelays picks at most one designated forwarder per angular sector
// around self: the farthest neighbor in that sector. Results are sorted by
// ID. Fewer than `sectors` relays are returned when sectors are empty.
func SelectRelays(self geom.Point, neighbors netstack.NeighborView, sectors int) []radio.NodeID {
	if sectors <= 0 || neighbors.Len() == 0 {
		return nil
	}
	type pick struct {
		id   radio.NodeID
		dist float64
		ok   bool
	}
	picks := make([]pick, sectors)
	width := 2 * math.Pi / float64(sectors)
	it := neighbors.Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		if n.Loc.Eq(self) {
			continue
		}
		ang := self.Angle(n.Loc) // (−π, π]
		if ang < 0 {
			ang += 2 * math.Pi
		}
		idx := int(ang / width)
		if idx >= sectors {
			idx = sectors - 1
		}
		d := self.Dist(n.Loc)
		p := &picks[idx]
		if !p.ok || d > p.dist || (d == p.dist && n.ID < p.id) {
			*p = pick{id: n.ID, dist: d, ok: true}
		}
	}
	var out []radio.NodeID
	for _, p := range picks {
		if p.ok {
			out = append(out, p.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Contains reports whether id is in the designated relay set. A nil set
// designates everyone (blind flooding).
func Contains(relays []radio.NodeID, id radio.NodeID) bool {
	if relays == nil {
		return true
	}
	i := sort.Search(len(relays), func(i int) bool { return relays[i] >= id })
	return i < len(relays) && relays[i] == id
}
