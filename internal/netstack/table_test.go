package netstack

import (
	"slices"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

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

func TestTableTouch(t *testing.T) {
	tb := &NeighborTable{}
	tb.Upsert(1, geom.Pt(1, 1), 5)
	if !tb.Touch(1, 50) {
		t.Fatal("Touch of existing entry reported false")
	}
	n, _ := tb.Get(1)
	if n.LastHeard != 50 || !n.Loc.Eq(geom.Pt(1, 1)) {
		t.Fatalf("Touch broke entry: %v", n)
	}
	if tb.Touch(99, 50) {
		t.Fatal("Touch of missing entry reported true")
	}
}

func TestTablePurge(t *testing.T) {
	tb := &NeighborTable{}
	tb.Upsert(3, geom.Pt(0, 0), 10)
	tb.Upsert(1, geom.Pt(0, 0), 5)
	tb.Upsert(2, geom.Pt(0, 0), 40)
	tb.Upsert(4, geom.Pt(0, 0), 1)
	var offered []radio.NodeID
	tb.Purge(30, func(n *Neighbor) bool {
		offered = append(offered, n.ID)
		if n.ID != 3 {
			return false
		}
		n.Loc, n.LastHeard = geom.Pt(7, 7), 30
		return true
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
	tb.Purge(35, func(*Neighbor) bool { return false })
	if left := tb.All(); len(left) != 1 || left[0].ID != 2 {
		t.Fatalf("purge left %v, want only 2", left)
	}
}

func TestTableAllSorted(t *testing.T) {
	tb := &NeighborTable{}
	for _, id := range []radio.NodeID{5, 2, 9, 1} {
		tb.Upsert(id, geom.Pt(float64(id), 0), 0)
	}
	all := tb.All()
	for i := 1; i < len(all); i++ {
		if all[i].ID < all[i-1].ID {
			t.Fatalf("All not sorted: %v", all)
		}
	}
}

// TestTableMatchesMapModel drives the table through seeded random
// Upsert/Remove/Touch/Purge sequences against a map reference: after
// every operation the table must hold exactly the model's entries in
// ascending ID order, and every Purge must offer keep exactly the IDs
// the model finds stale, ascending.
func TestTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		tb := &NeighborTable{}
		model := map[radio.NodeID]Neighbor{}
		now := sim.Time(0)
		for op := 0; op < 2000; op++ {
			now += sim.Time(r.Intn(5))
			id := radio.NodeID(r.Intn(40))
			switch r.Intn(8) {
			case 0, 1, 2, 3:
				loc := geom.Pt(r.Uniform(0, 100), r.Uniform(0, 100))
				tb.Upsert(id, loc, now)
				model[id] = Neighbor{ID: id, Loc: loc, LastHeard: now}
			case 4:
				tb.Remove(id)
				delete(model, id)
			case 5, 6:
				n, ok := model[id]
				if ok {
					n.LastHeard = now
					model[id] = n
				}
				if got := tb.Touch(id, now); got != ok {
					t.Fatalf("seed %d op %d: Touch(%d) = %v, model has it: %v", seed, op, id, got, ok)
				}
			case 7:
				// Odd IDs are kept and refreshed, even ones expire.
				deadline := now - sim.Time(r.Intn(60))
				var want []radio.NodeID
				for id, n := range model {
					if n.LastHeard >= deadline {
						continue
					}
					want = append(want, id)
					if id%2 == 1 {
						n.LastHeard = now
						model[id] = n
					} else {
						delete(model, id)
					}
				}
				slices.Sort(want)
				var got []radio.NodeID
				tb.Purge(deadline, func(n *Neighbor) bool {
					got = append(got, n.ID)
					if n.ID%2 == 0 {
						return false
					}
					n.LastHeard = now
					return true
				})
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Purge(%v) offered %v, want %v", seed, op, deadline, got, want)
				}
			}
			all := tb.All()
			if len(all) != len(model) || tb.Len() != len(model) {
				t.Fatalf("seed %d op %d: table has %d entries (Len %d), model %d",
					seed, op, len(all), tb.Len(), len(model))
			}
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
			}
		}
	}
}

// TestTableReserveSizesOnce pins the sizing contract sensors rely on:
// after Reserve(n), n insertions never regrow the table, and Reserve
// neither shrinks a table nor changes its entries.
func TestTableReserveSizesOnce(t *testing.T) {
	var tb NeighborTable
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
	before := slices.Clone(tb.All())
	tb.Reserve(4)
	if tb.Cap() != c || !slices.Equal(tb.All(), before) {
		t.Fatalf("Reserve below Len changed the table: cap %d, entries %v", tb.Cap(), tb.All())
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

// TestTableViewDoesNotAllocate pins the view contract: All, and
// TableSource.RoutingNeighbors through the NeighborSource interface the
// router calls, return the table's own entries without copying them.
func TestTableViewDoesNotAllocate(t *testing.T) {
	tb := &NeighborTable{}
	for id := radio.NodeID(1); id <= 20; id++ {
		tb.Upsert(id, geom.Pt(float64(id), 0), 0)
	}
	var src NeighborSource = TableSource{Table: tb}
	seen := 0
	if a := testing.AllocsPerRun(100, func() { seen += len(tb.All()) }); a != 0 {
		t.Errorf("All: %v allocs per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { seen += len(src.RoutingNeighbors()) }); a != 0 {
		t.Errorf("TableSource.RoutingNeighbors: %v allocs per call, want 0", a)
	}
	if all := src.RoutingNeighbors(); len(all) != 20 || &all[0] != &tb.All()[0] {
		t.Errorf("RoutingNeighbors is not a view of the table's entries")
	}
	if seen == 0 {
		t.Fatal("no entries seen")
	}
}
