package netstack

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"roborepair/internal/checkpoint"
	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

// Get returns the entry for id, read through the table's view.
func (t *NeighborTable) Get(st Statics, id radio.NodeID) (Neighbor, bool) {
	it := t.View(st).Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		if n.ID == id {
			return n, true
		}
	}
	return Neighbor{}, false
}

// AppendAll appends a copy of the table's entries, ascending by ID, to
// dst.
func (t *NeighborTable) AppendAll(st Statics, dst []Neighbor) []Neighbor {
	it := t.View(st).Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		dst = append(dst, n)
	}
	return dst
}

// none is the Statics of a table without a medium: every entry located.
var none Statics

func TestTableUpsertGetRemove(t *testing.T) {
	tb := &NeighborTable{}
	tb.Upsert(none, 1, geom.Pt(1, 2), 10)
	n, ok := tb.Get(none, 1)
	if !ok || !n.Loc.Eq(geom.Pt(1, 2)) || n.LastHeard != 10 {
		t.Fatalf("Get = %v, %v", n, ok)
	}
	tb.Upsert(none, 1, geom.Pt(3, 4), 20)
	n, _ = tb.Get(none, 1)
	if !n.Loc.Eq(geom.Pt(3, 4)) || n.LastHeard != 20 {
		t.Fatalf("Upsert did not update: %v", n)
	}
	tb.Remove(none, 1)
	if _, ok := tb.Get(none, 1); ok {
		t.Fatal("Remove left entry")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTablePurge(t *testing.T) {
	tb := &NeighborTable{}
	tb.Upsert(none, 3, geom.Pt(0, 0), 10)
	tb.Upsert(none, 1, geom.Pt(0, 0), 5)
	tb.Upsert(none, 2, geom.Pt(0, 0), 40)
	tb.Upsert(none, 4, geom.Pt(0, 0), 1)
	var offered []radio.NodeID
	tb.Purge(none, 30, func(n Neighbor) (Neighbor, bool) {
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
	if n, ok := tb.Get(none, 3); !ok || n.LastHeard != 30 || !n.Loc.Eq(geom.Pt(7, 7)) {
		t.Fatalf("kept entry = %v, %v; want refreshed by keep", n, ok)
	}
	tb.Purge(none, 35, func(n Neighbor) (Neighbor, bool) { return n, false })
	if left := tb.AppendAll(none, nil); len(left) != 1 || left[0].ID != 2 {
		t.Fatalf("purge left %v, want only 2", left)
	}
}

func TestTableAllSorted(t *testing.T) {
	tb := &NeighborTable{}
	for _, id := range []radio.NodeID{5, 2, 9, 1} {
		tb.Upsert(none, id, geom.Pt(float64(id), 0), 0)
	}
	all := tb.AppendAll(none, nil)
	for i := 1; i < len(all); i++ {
		if all[i].ID < all[i-1].ID {
			t.Fatalf("All not sorted: %v", all)
		}
	}
}

// mobileNode is a testNode the medium treats as mobile, as it does robots.
type mobileNode struct{ testNode }

func (n *mobileNode) RadioMobile() bool { return true }

// modelOwner is the station whose table the model tests drive: it sits
// mid-field, and its 60 m range holds about half the field's static
// stations.
const modelOwner = radio.NodeID(40)

// modelField is a medium for the table model tests: static stations at
// IDs [0, 30), mobile robots at [30, 35), IDs [35, 40) never attached, and
// the table's owner at modelOwner. It returns the medium and the owner's
// Statics.
func modelField(r *rng.Source) (*radio.Medium, Statics) {
	m := mustMedium(sim.NewScheduler(), metrics.NewRegistry(), radio.Config{})
	for id := radio.NodeID(0); id < 35; id++ {
		n := testNode{id: id, pos: geom.Pt(r.Uniform(0, 100), r.Uniform(0, 100)), rng: 63}
		if id < 30 {
			m.Attach(&n)
		} else {
			m.Attach(&mobileNode{n})
		}
	}
	m.Attach(&testNode{id: modelOwner, pos: geom.Pt(50, 50), rng: 60})
	return m, Statics{Medium: m, Owner: modelOwner}
}

// inSet reports whether id is a member of the owner's static set, by a
// brute-force reading of the medium: an attached static station other
// than the owner within the owner's range.
func inSet(st Statics, id radio.NodeID) bool {
	o, ok := st.Medium.Station(st.Owner).(radio.Station)
	p, static := st.Medium.StaticPos(id)
	if !ok || o == nil || !static || id == st.Owner {
		return false
	}
	r := o.RadioRange()
	return o.RadioPos().Dist2(p) <= r*r
}

// TestTableMatchesMapModel drives the table through seeded random
// Upsert/Remove/Purge sequences against a map reference: after
// every operation the table must hold exactly the model's entries in
// ascending ID order, and every Purge must offer keep exactly the IDs
// the model finds stale, ascending. The table's owner sits in a medium
// with static stations inside and outside its static set, robots and
// unattached IDs, and hears static stations both at their own positions
// and elsewhere, so entries move between the slots and the located list;
// exactly the entries heard at the static position of a member of the
// owner's set are kept in slots.
func TestTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		m, st := modelField(r)
		var tb NeighborTable
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
				tb.Upsert(st, id, loc, now)
				model[id] = Neighbor{ID: id, Loc: loc, LastHeard: now}
			case 4:
				tb.Remove(st, id)
				delete(model, id)
			case 5, 6:
				// Hearing a known neighbor again where it was.
				if n, ok := model[id]; ok {
					n.LastHeard = now
					model[id] = n
					tb.Upsert(st, id, n.Loc, now)
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
				tb.Purge(st, deadline, func(n Neighbor) (Neighbor, bool) {
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
			all := tb.AppendAll(st, nil)
			if len(all) != len(model) || tb.Len() != len(model) || tb.View(st).Len() != len(model) {
				t.Fatalf("seed %d op %d: table has %d entries (Len %d), model %d",
					seed, op, len(all), tb.Len(), len(model))
			}
			slotted := 0
			for i, n := range all {
				if i > 0 && all[i-1].ID >= n.ID {
					t.Fatalf("seed %d op %d: entries not ID-ascending: %v", seed, op, all)
				}
				if model[n.ID] != n {
					t.Fatalf("seed %d op %d: entry %v, model %v", seed, op, n, model[n.ID])
				}
				if got, ok := tb.Get(st, n.ID); !ok || got != n {
					t.Fatalf("seed %d op %d: Get(%d) = %v, %v", seed, op, n.ID, got, ok)
				}
				if p, ok := m.StaticPos(n.ID); ok && p == n.Loc && inSet(st, n.ID) {
					slotted++
				}
			}
			if len(tb.heard) != slotted {
				t.Fatalf("seed %d op %d: %d heard slots, %d entries heard at a set member's static position",
					seed, op, len(tb.heard), slotted)
			}
		}
	}
}

// slotModel is the reference for TestTableSlotsFollowSetChanges: the
// table's entries by ID, and which of them are heard at the static
// position of a member of the owner's set (tracking), whose location
// follows the medium's.
type slotModel struct {
	entries  map[radio.NodeID]Neighbor
	tracking map[radio.NodeID]bool
}

// put records an entry as the table files it.
func (md *slotModel) put(st Statics, n Neighbor) {
	md.entries[n.ID] = n
	p, ok := st.Medium.StaticPos(n.ID)
	md.tracking[n.ID] = ok && p == n.Loc && inSet(st, n.ID)
}

// TestTableSlotsFollowSetChanges drives one table and its medium through
// every way the owner's static set and the slots can part: peers heard on
// and off their positions, replacements attaching in range (the set is
// rebuilt with an ID in its middle), Detach and Moved of heard peers, and
// re-attaches, with Remove and Purge (drops, refreshes, and kept entries
// re-filed between the slots and the located list) in between. After
// every step the view's order and entries, Len and the AppendState bytes
// must equal a map model's. The model's rule for a set change: a tracking
// entry shows the medium's position for its station; once its station
// leaves the set (detached, or moved out of range) the entry keeps the
// position it showed and stops tracking.
func TestTableSlotsFollowSetChanges(t *testing.T) {
	cover := map[string]int{} // how often each set change hit a heard entry
	for seed := int64(1); seed <= 30; seed++ {
		r := rng.New(seed)
		m := mustMedium(sim.NewScheduler(), metrics.NewRegistry(), radio.Config{})
		owner := &testNode{id: 1000, pos: geom.Pt(50, 50), rng: 40}
		m.Attach(owner)
		st := Statics{Medium: m, Owner: owner.id}
		randPos := func() geom.Point { return geom.Pt(r.Uniform(0, 100), r.Uniform(0, 100)) }
		// Static stations on every tenth ID, so a replacement can take an
		// ID between two members; a few robots.
		nodes := map[radio.NodeID]*testNode{}
		attached := map[radio.NodeID]bool{}
		var ids []radio.NodeID
		for id := radio.NodeID(10); id <= 400; id += 10 {
			n := &testNode{id: id, pos: randPos(), rng: 40}
			nodes[id], attached[id] = n, true
			ids = append(ids, id)
			m.Attach(n)
		}
		for id := radio.NodeID(900); id < 903; id++ {
			m.Attach(&mobileNode{testNode{id: id, pos: randPos(), rng: 250}})
		}
		var tb NeighborTable
		md := &slotModel{entries: map[radio.NodeID]Neighbor{}, tracking: map[radio.NodeID]bool{}}
		// heard picks a known station and where it is heard: its static
		// position most of the time.
		heard := func() (radio.NodeID, geom.Point) {
			if r.Intn(8) == 0 {
				id := radio.NodeID(900 + r.Intn(3))
				return id, randPos()
			}
			id := ids[r.Intn(len(ids))]
			if p, ok := m.StaticPos(id); ok && r.Intn(4) != 0 {
				return id, p
			}
			return id, randPos()
		}
		pickHeard := func() (radio.NodeID, bool) {
			var keys []radio.NodeID
			for id := range md.entries {
				if nodes[id] != nil {
					keys = append(keys, id)
				}
			}
			if len(keys) == 0 {
				return 0, false
			}
			slices.Sort(keys)
			return keys[r.Intn(len(keys))], true
		}
		// moved applies a station's move or detach to the model: its
		// tracking entry shows the medium's position, and stops tracking
		// once the station is no longer a set member.
		moved := func(id radio.NodeID) {
			n, ok := md.entries[id]
			if !ok || !md.tracking[id] {
				return
			}
			n.Loc = nodes[id].pos
			md.entries[id] = n
			md.tracking[id] = inSet(st, id)
			switch {
			case !attached[id]:
				cover["heard peer detached"]++
			case md.tracking[id]:
				cover["heard peer moved within range"]++
			default:
				cover["heard peer moved out of range"]++
			}
		}
		now := sim.Time(0)
		var steps []string
		for op := 0; op < 600; op++ {
			now += sim.Time(r.Intn(4))
			switch k := r.Intn(16); {
			case k < 7:
				id, loc := heard()
				tb.Upsert(st, id, loc, now)
				md.put(st, Neighbor{ID: id, Loc: loc, LastHeard: now})
				steps = append(steps, "upsert")
			case k == 7:
				// A replacement boots in range, at a failed member's site
				// half the time, under an ID between two members.
				var id radio.NodeID
				for id == 0 || nodes[id] != nil {
					id = radio.NodeID(1 + r.Intn(399))
				}
				pos := geom.Pt(owner.pos.X+r.Uniform(-25, 25), owner.pos.Y+r.Uniform(-25, 25))
				if r.Intn(2) == 0 {
					pos = nodes[ids[r.Intn(len(ids))]].pos
				}
				n := &testNode{id: id, pos: pos, rng: 40}
				nodes[id], attached[id] = n, true
				i, _ := slices.BinarySearch(ids, id)
				ids = slices.Insert(ids, i, id)
				m.Attach(n)
				if inSet(st, id) && len(tb.heard) > 0 && id < ids[len(ids)-1] {
					cover["replacement joined mid-set"]++
				}
				steps = append(steps, "replace")
			case k == 8:
				if id, ok := pickHeard(); ok && attached[id] {
					m.Detach(id)
					attached[id] = false
					moved(id)
					steps = append(steps, "detach")
				}
			case k == 9:
				if id, ok := pickHeard(); ok && attached[id] {
					n := nodes[id]
					old := n.pos
					n.pos = randPos()
					m.Moved(id, old)
					moved(id)
					steps = append(steps, "moved")
				}
			case k == 10:
				// A detached station comes back somewhere.
				for _, id := range ids {
					if !attached[id] {
						nodes[id].pos = randPos()
						m.Attach(nodes[id])
						attached[id] = true
						steps = append(steps, "reattach")
						break
					}
				}
			case k == 11:
				if id, ok := pickHeard(); ok {
					tb.Remove(st, id)
					delete(md.entries, id)
					delete(md.tracking, id)
					steps = append(steps, "remove")
				}
			default:
				// Purge: drop a third of the stale entries, keep a third
				// as they are, and move the rest — onto their station's
				// static position or off it — so kept entries re-file.
				deadline := now - sim.Time(r.Intn(20))
				tb.Purge(st, deadline, func(n Neighbor) (Neighbor, bool) {
					if md.entries[n.ID] != n {
						t.Fatalf("seed %d op %d: Purge offered %v, model %v", seed, op, n, md.entries[n.ID])
					}
					switch r.Intn(3) {
					case 0:
						delete(md.entries, n.ID)
						delete(md.tracking, n.ID)
						return n, false
					case 1:
						if p, ok := m.StaticPos(n.ID); ok && r.Intn(2) == 0 {
							n.Loc = p
						} else {
							n.Loc = randPos()
						}
					}
					n.LastHeard = now
					was := md.tracking[n.ID]
					md.put(st, n)
					if was != md.tracking[n.ID] {
						cover["purge re-filed a kept entry"]++
					}
					return n, true
				})
				for id, n := range md.entries {
					if _, ok := md.entries[id]; ok && n.LastHeard < deadline {
						t.Fatalf("seed %d op %d: stale entry %v survived the purge in the model", seed, op, n)
					}
				}
				steps = append(steps, "purge")
			}
			checkSlotModel(t, &tb, st, md, func() string {
				return fmt.Sprintf("seed %d op %d (%s)", seed, op, strings.Join(steps[max(0, len(steps)-4):], " → "))
			})
		}
		if tb.Len() == 0 {
			t.Fatalf("seed %d: the table ended empty", seed)
		}
	}
	for _, c := range []string{"heard peer detached", "heard peer moved within range", "heard peer moved out of range",
		"replacement joined mid-set", "purge re-filed a kept entry"} {
		if cover[c] < 10 {
			t.Errorf("%s only %d times: the churn misses a case", c, cover[c])
		}
	}
	t.Logf("coverage: %v", cover)
}

// checkSlotModel compares the table with the model: the view's entries
// in ascending ID order, Len, the view's Len, the heard slots and the
// AppendState bytes.
func checkSlotModel(t *testing.T, tb *NeighborTable, st Statics, md *slotModel, where func() string) {
	t.Helper()
	want := make([]Neighbor, 0, len(md.entries))
	tracking := 0
	for id, n := range md.entries {
		want = append(want, n)
		if md.tracking[id] {
			tracking++
		}
	}
	slices.SortFunc(want, func(a, b Neighbor) int { return int(a.ID - b.ID) })
	if got := tb.AppendAll(st, nil); !slices.Equal(got, want) {
		t.Fatalf("%s: view %v, model %v", where(), got, want)
	}
	if tb.Len() != len(want) || tb.View(st).Len() != len(want) {
		t.Fatalf("%s: Len %d, view Len %d, model %d", where(), tb.Len(), tb.View(st).Len(), len(want))
	}
	if len(tb.heard) != tracking {
		t.Fatalf("%s: %d heard slots, model tracks %d entries", where(), len(tb.heard), tracking)
	}
	b := checkpoint.AppendU32(nil, uint32(len(want)))
	for _, n := range want {
		b = checkpoint.AppendI64(b, int64(n.ID))
		b = checkpoint.AppendF64(b, n.Loc.X)
		b = checkpoint.AppendF64(b, n.Loc.Y)
		b = checkpoint.AppendF64(b, float64(n.LastHeard))
	}
	if got := tb.AppendState(st, nil); !bytes.Equal(got, b) {
		t.Fatalf("%s: AppendState differs from the model's bytes", where())
	}
}

// TestTableKeepsForeignLocationBits checks that only a bit-for-bit match
// with the medium's position fills a slot: a location equal to it under
// == but with a different sign of zero, or a robot's, keeps its own bits.
func TestTableKeepsForeignLocationBits(t *testing.T) {
	m := mustMedium(sim.NewScheduler(), metrics.NewRegistry(), radio.Config{})
	m.Attach(&testNode{id: 1, pos: geom.Pt(0, 10), rng: 63})
	m.Attach(&mobileNode{testNode{id: 2, pos: geom.Pt(5, 5), rng: 63}})
	m.Attach(&testNode{id: 3, pos: geom.Pt(0, 0), rng: 63})
	st := Statics{Medium: m, Owner: 3}
	var tb NeighborTable
	negZero := geom.Pt(math.Copysign(0, -1), 10)
	tb.Upsert(st, 1, negZero, 1)
	tb.Upsert(st, 2, geom.Pt(5, 5), 1)
	if len(tb.heard) != 0 {
		t.Fatalf("%d heard slots: a -0 location and a robot must stay located", len(tb.heard))
	}
	if n, _ := tb.Get(st, 1); !math.Signbit(n.Loc.X) {
		t.Fatalf("entry 1 at %v lost the sign of its zero", n.Loc)
	}
	tb.Upsert(st, 1, geom.Pt(0, 10), 2)
	if len(tb.heard) != 1 || tb.Len() != 2 {
		t.Fatalf("heard at its own position, 1 should be the only slot: %d slots, len %d", len(tb.heard), tb.Len())
	}
	if n, _ := tb.Get(st, 1); math.Signbit(n.Loc.X) || n.LastHeard != 2 {
		t.Fatalf("entry 1 = %v, want (0,10) heard at 2", n)
	}
}

// TestTableSlotsSizedOnce pins the sizing contract sensors rely on: the
// first insertion into a slot makes a slot for every member of the
// owner's static set, later static peers never regrow the table, and a
// located entry makes no slots.
func TestTableSlotsSizedOnce(t *testing.T) {
	m := mustMedium(sim.NewScheduler(), metrics.NewRegistry(), radio.Config{})
	for id := radio.NodeID(1); id <= 12; id++ {
		m.Attach(&testNode{id: id, pos: geom.Pt(float64(id), 0), rng: 63})
	}
	st := Statics{Medium: m, Owner: 1}
	var tb NeighborTable
	tb.Upsert(st, 5, geom.Pt(5, 1), 0) // off its position: located
	if tb.Cap() != 0 {
		t.Fatalf("a located entry made %d slots", tb.Cap())
	}
	c := 0
	for id := radio.NodeID(12); id >= 2; id-- {
		tb.Upsert(st, id, geom.Pt(float64(id), 0), 0)
		if c == 0 {
			c = tb.Cap()
		}
		if c < 11 || tb.Cap() != c {
			t.Fatalf("after inserting %d: %d slots (first %d), want one per member of the 11-station set, made once", id, tb.Cap(), c)
		}
	}
	if tb.Len() != 11 || len(tb.heard) != 11 {
		t.Fatalf("Len %d with %d heard slots, want 11 and 11", tb.Len(), len(tb.heard))
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
	m.Attach(&testNode{id: 21, pos: geom.Pt(10, 0), rng: 63})
	st := Statics{Medium: m, Owner: 21}
	var tb NeighborTable
	for id := radio.NodeID(1); id <= 20; id++ {
		loc := geom.Pt(float64(id), 0)
		if id%5 == 0 {
			loc.Y = 1 // heard off its position: a located entry
		}
		tb.Upsert(st, id, loc, 0)
	}
	var src NeighborSource = TableSource{Table: &tb, Statics: st}
	seen := 0
	walk := func(v NeighborView) {
		it := v.Iter()
		for n, ok := it.Next(); ok; n, ok = it.Next() {
			seen += int(n.ID)
		}
	}
	if a := testing.AllocsPerRun(100, func() { walk(tb.View(st)) }); a != 0 {
		t.Errorf("View: %v allocs per walk, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { walk(src.RoutingNeighbors()) }); a != 0 {
		t.Errorf("TableSource.RoutingNeighbors: %v allocs per walk, want 0", a)
	}
	if v := src.RoutingNeighbors(); v.Len() != 20 || v.n != 16 || &v.heard[0] != &tb.heard[:1][0] {
		t.Errorf("RoutingNeighbors is not a view of the table's entries")
	}
	if seen == 0 {
		t.Fatal("no entries seen")
	}
}
