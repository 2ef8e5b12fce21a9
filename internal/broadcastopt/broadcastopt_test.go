package broadcastopt

import (
	"math"
	"testing"
	"testing/quick"

	"roborepair/internal/geom"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
)

func nb(id radio.NodeID, x, y float64) netstack.Neighbor {
	return netstack.Neighbor{ID: id, Loc: geom.Pt(x, y)}
}

// viewOf returns a table-backed view of the neighbors, ascending by ID.
func viewOf(list []netstack.Neighbor) netstack.NeighborView {
	var tb netstack.NeighborTable
	var none netstack.Statics // no medium: every entry located
	for _, n := range list {
		tb.Upsert(none, n.ID, n.Loc, n.LastHeard)
	}
	return tb.View(none)
}

func TestSelectRelaysEmpty(t *testing.T) {
	if got := SelectRelays(geom.Pt(0, 0), netstack.NeighborView{}, 6); got != nil {
		t.Fatalf("empty neighbors → %v", got)
	}
	if got := SelectRelays(geom.Pt(0, 0), viewOf([]netstack.Neighbor{nb(1, 1, 0)}), 0); got != nil {
		t.Fatalf("zero sectors → %v", got)
	}
}

func TestSelectRelaysOnePerSector(t *testing.T) {
	self := geom.Pt(0, 0)
	// Two neighbors in the same (first) sector: only the farther relays.
	neighbors := []netstack.Neighbor{
		nb(1, 10, 1),
		nb(2, 50, 5),
		nb(3, -30, 1), // opposite sector
	}
	got := SelectRelays(self, viewOf(neighbors), 6)
	if len(got) != 2 {
		t.Fatalf("relays = %v, want 2 sectors covered", got)
	}
	if !Contains(got, 2) || !Contains(got, 3) || Contains(got, 1) {
		t.Fatalf("relays = %v, want {2,3}", got)
	}
}

func TestSelectRelaysCapBySectors(t *testing.T) {
	self := geom.Pt(0, 0)
	var neighbors []netstack.Neighbor
	for i := 0; i < 100; i++ {
		ang := float64(i) / 100 * 2 * math.Pi
		neighbors = append(neighbors, nb(radio.NodeID(i+1), 50*math.Cos(ang), 50*math.Sin(ang)))
	}
	got := SelectRelays(self, viewOf(neighbors), 6)
	if len(got) != 6 {
		t.Fatalf("relays = %d, want exactly 6 with all sectors populated", len(got))
	}
}

func TestSelectRelaysSkipsCoincident(t *testing.T) {
	self := geom.Pt(5, 5)
	got := SelectRelays(self, viewOf([]netstack.Neighbor{nb(1, 5, 5)}), 6)
	if got != nil {
		t.Fatalf("coincident neighbor selected: %v", got)
	}
}

func TestSelectRelaysSorted(t *testing.T) {
	self := geom.Pt(0, 0)
	neighbors := []netstack.Neighbor{
		nb(9, 10, 0), nb(3, 0, 10), nb(7, -10, 0), nb(1, 0, -10),
	}
	got := SelectRelays(self, viewOf(neighbors), 4)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("unsorted relays: %v", got)
		}
	}
}

func TestContains(t *testing.T) {
	if !Contains(nil, 5) {
		t.Fatal("nil set designates everyone")
	}
	set := []radio.NodeID{2, 5, 9}
	if !Contains(set, 5) || Contains(set, 4) {
		t.Fatal("membership wrong")
	}
	if Contains([]radio.NodeID{}, 5) {
		t.Fatal("empty (non-nil) set designates nobody")
	}
}

// Property: relay count never exceeds the sector count, and every relay is
// an actual neighbor.
func TestPropertyRelayBounds(t *testing.T) {
	prop := func(seed int64, sectorRaw uint8) bool {
		sectors := int(sectorRaw%8) + 1
		r := rng.New(seed)
		self := geom.Pt(100, 100)
		ids := map[radio.NodeID]bool{}
		var neighbors []netstack.Neighbor
		for i := 0; i < 20; i++ {
			id := radio.NodeID(i + 1)
			ids[id] = true
			neighbors = append(neighbors, nb(id, r.Uniform(50, 150), r.Uniform(50, 150)))
		}
		got := SelectRelays(self, viewOf(neighbors), sectors)
		if len(got) > sectors {
			return false
		}
		for _, id := range got {
			if !ids[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the farthest neighbor overall is always designated (it is the
// farthest in its own sector).
func TestPropertyFarthestAlwaysDesignated(t *testing.T) {
	prop := func(seed int64) bool {
		r := rng.New(seed)
		self := geom.Pt(0, 0)
		var neighbors []netstack.Neighbor
		var farthest radio.NodeID
		best := -1.0
		for i := 0; i < 15; i++ {
			n := nb(radio.NodeID(i+1), r.Uniform(-60, 60), r.Uniform(-60, 60))
			neighbors = append(neighbors, n)
			if d := self.Dist(n.Loc); d > best {
				best, farthest = d, n.ID
			}
		}
		if best <= 0 {
			return true
		}
		return Contains(SelectRelays(self, viewOf(neighbors), 6), farthest)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
