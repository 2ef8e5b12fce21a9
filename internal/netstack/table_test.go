package netstack

import (
	"math"
	"slices"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

// Get returns the entry for id, read through the table's view.
func (t *NeighborTable) Get(id radio.NodeID) (Neighbor, bool) {
	it := t.View().Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		if n.ID == id {
			return n, true
		}
	}
	return Neighbor{}, false
}

// AppendAll appends a copy of the table's entries, ascending by ID, to
// dst.
func (t *NeighborTable) AppendAll(dst []Neighbor) []Neighbor {
	it := t.View().Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		dst = append(dst, n)
	}
	return dst
}

func TestTableUpsertGetRemove(t *testing.T) {
	tb := &NeighborTable{}
	tb.Upsert(1, geom.Pt(1, 2), 10)
	n, ok := tb.Get(1)
	if !ok || !n.Loc.Eq(geom.Pt(1, 2)) || n.LastHeard != 10 {
		t.Fatalf("Get = %v, %v", n, ok)
	}
	tb.Upsert(1, geom.Pt(3, 4), 20)
	n, _ = tb.Get(1)
	if !n.Loc.Eq(geom.Pt(3, 4)) || n.LastHeard != 20 {
		t.Fatalf("Upsert did not update: %v", n)
	}
	tb.Remove(1)
	if _, ok := tb.Get(1); ok {
		t.Fatal("Remove left entry")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTablePurge(t *testing.T) {
	tb := &NeighborTable{}
	tb.Upsert(3, geom.Pt(0, 0), 10)
	tb.Upsert(1, geom.Pt(0, 0), 5)
	tb.Upsert(2, geom.Pt(0, 0), 40)
	tb.Upsert(4, geom.Pt(0, 0), 1)
	var offered []radio.NodeID
	tb.Purge(30, func(n Neighbor) (Neighbor, bool) {
		offered = append(offered, n.ID)
		if n.ID != 3 {
			return n, false
		}
		n.Loc, n.LastHeard = geom.Pt(7, 7), 30
		return n, true
	})
	if !slices.Equal(offered, []radio.NodeID{1, 3, 4}) {
		t.Fatalf("keep saw %v, want the stale [1 3 4] ascending", offered)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len after purge = %d, want 2", tb.Len())
	}
	if n, ok := tb.Get(3); !ok || n.LastHeard != 30 || !n.Loc.Eq(geom.Pt(7, 7)) {
		t.Fatalf("kept entry = %v, %v; want refreshed by keep", n, ok)
	}
	tb.Purge(35, func(n Neighbor) (Neighbor, bool) { return n, false })
	if left := tb.AppendAll(nil); len(left) != 1 || left[0].ID != 2 {
		t.Fatalf("purge left %v, want only 2", left)
	}
}

func TestTableAllSorted(t *testing.T) {
	tb := &NeighborTable{}
	for _, id := range []radio.NodeID{5, 2, 9, 1} {
		tb.Upsert(id, geom.Pt(float64(id), 0), 0)
	}
	all := tb.AppendAll(nil)
	for i := 1; i < len(all); i++ {
		if all[i].ID < all[i-1].ID {
			t.Fatalf("All not sorted: %v", all)
		}
	}
}

// mobileNode is a testNode the medium treats as mobile, as it does robots.
type mobileNode struct{ testNode }

func (n *mobileNode) RadioMobile() bool { return true }

// modelField is a medium for the table model tests: static stations at
// IDs [0, 30), mobile robots at [30, 35), and IDs [35, 40) never attached.
func modelField(r *rng.Source) *radio.Medium {
	m := mustMedium(sim.NewScheduler(), metrics.NewRegistry(), radio.Config{})
	for id := radio.NodeID(0); id < 35; id++ {
		n := testNode{id: id, pos: geom.Pt(r.Uniform(0, 100), r.Uniform(0, 100)), rng: 63}
		if id < 30 {
			m.Attach(&n)
		} else {
			m.Attach(&mobileNode{n})
		}
	}
	return m
}

// TestTableMatchesMapModel drives the table through seeded random
// Upsert/Remove/Purge sequences against a map reference: after
// every operation the table must hold exactly the model's entries in
// ascending ID order, and every Purge must offer keep exactly the IDs
// the model finds stale, ascending. The table is bound to a medium with
// static stations, robots and unattached IDs, and hears static stations
// both at their own positions and elsewhere, so entries move between the
// peer and the located lists; exactly the entries heard at their
// station's static position are kept as peers.
func TestTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		m := modelField(r)
		tb := NewNeighborTable(m)
		model := map[radio.NodeID]Neighbor{}
		// heardAt picks where id is heard: a static station half the time
		// at the position the medium caches for it.
		heardAt := func(id radio.NodeID) geom.Point {
			if p, ok := m.StaticPos(id); ok && r.Intn(2) == 0 {
				return p
			}
			return geom.Pt(r.Uniform(0, 100), r.Uniform(0, 100))
		}
		now := sim.Time(0)
		for op := 0; op < 2000; op++ {
			now += sim.Time(r.Intn(5))
			id := radio.NodeID(r.Intn(40))
			switch r.Intn(8) {
			case 0, 1, 2, 3:
				loc := heardAt(id)
				tb.Upsert(id, loc, now)
				model[id] = Neighbor{ID: id, Loc: loc, LastHeard: now}
			case 4:
				tb.Remove(id)
				delete(model, id)
			case 5, 6:
				// Hearing a known neighbor again where it was.
				if n, ok := model[id]; ok {
					n.LastHeard = now
					model[id] = n
					tb.Upsert(id, n.Loc, now)
				}
			case 7:
				// Odd IDs are kept and refreshed (some moved), even ones
				// expire.
				deadline := now - sim.Time(r.Intn(60))
				var want []radio.NodeID
				for id, n := range model {
					if n.LastHeard >= deadline {
						continue
					}
					want = append(want, id)
					if id%2 == 0 {
						delete(model, id)
					}
				}
				slices.Sort(want)
				var got []radio.NodeID
				tb.Purge(deadline, func(n Neighbor) (Neighbor, bool) {
					got = append(got, n.ID)
					if n.ID%2 == 0 {
						return n, false
					}
					if model[n.ID] != n {
						t.Fatalf("seed %d op %d: Purge offered %v, model %v", seed, op, n, model[n.ID])
					}
					if r.Intn(2) == 0 {
						n.Loc = heardAt(n.ID)
					}
					n.LastHeard = now
					model[n.ID] = n
					return n, true
				})
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Purge(%v) offered %v, want %v", seed, op, deadline, got, want)
				}
			}
			all := tb.AppendAll(nil)
			if len(all) != len(model) || tb.Len() != len(model) || tb.View().Len() != len(model) {
				t.Fatalf("seed %d op %d: table has %d entries (Len %d), model %d",
					seed, op, len(all), tb.Len(), len(model))
			}
			peers := 0
			for i, n := range all {
				if i > 0 && all[i-1].ID >= n.ID {
					t.Fatalf("seed %d op %d: entries not ID-ascending: %v", seed, op, all)
				}
				if model[n.ID] != n {
					t.Fatalf("seed %d op %d: entry %v, model %v", seed, op, n, model[n.ID])
				}
				if got, ok := tb.Get(n.ID); !ok || got != n {
					t.Fatalf("seed %d op %d: Get(%d) = %v, %v", seed, op, n.ID, got, ok)
				}
				if p, ok := m.StaticPos(n.ID); ok && p == n.Loc {
					peers++
				}
			}
			if len(tb.peers) != peers {
				t.Fatalf("seed %d op %d: %d peer entries, %d entries heard at their static position",
					seed, op, len(tb.peers), peers)
			}
		}
	}
}

// TestTableKeepsForeignLocationBits checks that only a bit-for-bit match
// with the medium's position makes an entry a peer: a location equal to
// it under == but with a different sign of zero, or a robot's, keeps its
// own bits.
func TestTableKeepsForeignLocationBits(t *testing.T) {
	m := mustMedium(sim.NewScheduler(), metrics.NewRegistry(), radio.Config{})
	m.Attach(&testNode{id: 1, pos: geom.Pt(0, 10), rng: 63})
	m.Attach(&mobileNode{testNode{id: 2, pos: geom.Pt(5, 5), rng: 63}})
	tb := NewNeighborTable(m)
	negZero := geom.Pt(math.Copysign(0, -1), 10)
	tb.Upsert(1, negZero, 1)
	tb.Upsert(2, geom.Pt(5, 5), 1)
	if len(tb.peers) != 0 {
		t.Fatalf("peers %v: a -0 location and a robot must stay located", tb.peers)
	}
	if n, _ := tb.Get(1); !math.Signbit(n.Loc.X) {
		t.Fatalf("entry 1 at %v lost the sign of its zero", n.Loc)
	}
	tb.Upsert(1, geom.Pt(0, 10), 2)
	if len(tb.peers) != 1 || tb.Len() != 2 {
		t.Fatalf("heard at its own position, 1 should be the only peer: peers %v, len %d", tb.peers, tb.Len())
	}
	if n, _ := tb.Get(1); math.Signbit(n.Loc.X) || n.LastHeard != 2 {
		t.Fatalf("entry 1 = %v, want (0,10) heard at 2", n)
	}
}

// TestTableReserveSizesOnce pins the sizing contract sensors rely on:
// after Reserve(n), n static peers never regrow the table, and Reserve
// neither shrinks a table nor changes its entries.
func TestTableReserveSizesOnce(t *testing.T) {
	m := mustMedium(sim.NewScheduler(), metrics.NewRegistry(), radio.Config{})
	for id := radio.NodeID(1); id <= 12; id++ {
		m.Attach(&testNode{id: id, pos: geom.Pt(float64(id), 0), rng: 63})
	}
	tb := NewNeighborTable(m)
	tb.Reserve(12)
	c := tb.Cap()
	if c < 12 {
		t.Fatalf("Cap after Reserve(12) = %d", c)
	}
	for id := radio.NodeID(12); id >= 1; id-- {
		tb.Upsert(id, geom.Pt(float64(id), 0), 0)
		if tb.Cap() != c {
			t.Fatalf("insertion %d regrew the table: cap %d -> %d", 13-id, c, tb.Cap())
		}
	}
	before := tb.AppendAll(nil)
	tb.Reserve(4)
	if tb.Cap() != c || !slices.Equal(tb.AppendAll(nil), before) {
		t.Fatalf("Reserve below Len changed the table: cap %d, entries %v", tb.Cap(), tb.AppendAll(nil))
	}
}

func TestRouteModeString(t *testing.T) {
	if ModeGreedy.String() != "greedy" || ModePerimeter.String() != "perimeter" {
		t.Fatal("mode names wrong")
	}
	if RouteMode(9).String() == "" {
		t.Fatal("unknown mode should format")
	}
}

// TestTableViewDoesNotAllocate pins the view contract: View, iterating
// it, and TableSource.RoutingNeighbors through the NeighborSource
// interface the router calls read the table's own entries without copying
// them.
func TestTableViewDoesNotAllocate(t *testing.T) {
	m := mustMedium(sim.NewScheduler(), metrics.NewRegistry(), radio.Config{})
	for id := radio.NodeID(1); id <= 20; id++ {
		m.Attach(&testNode{id: id, pos: geom.Pt(float64(id), 0), rng: 63})
	}
	tb := NewNeighborTable(m)
	for id := radio.NodeID(1); id <= 20; id++ {
		loc := geom.Pt(float64(id), 0)
		if id%5 == 0 {
			loc.Y = 1 // heard off its position: a located entry
		}
		tb.Upsert(id, loc, 0)
	}
	var src NeighborSource = TableSource{Table: &tb}
	seen := 0
	walk := func(v NeighborView) {
		it := v.Iter()
		for n, ok := it.Next(); ok; n, ok = it.Next() {
			seen += int(n.ID)
		}
	}
	if a := testing.AllocsPerRun(100, func() { walk(tb.View()) }); a != 0 {
		t.Errorf("View: %v allocs per walk, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { walk(src.RoutingNeighbors()) }); a != 0 {
		t.Errorf("TableSource.RoutingNeighbors: %v allocs per walk, want 0", a)
	}
	if v := src.RoutingNeighbors(); v.Len() != 20 || len(v.peers) != 16 || &v.peers[0] != &tb.peers[0] {
		t.Errorf("RoutingNeighbors is not a view of the table's entries")
	}
	if seen == 0 {
		t.Fatal("no entries seen")
	}
}
