package node

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// trackModel is the reference for a sensor's robot tracks: a map from
// station ID to its track, walked in sorted ID order where order matters.
type trackModel struct {
	tracks    map[radio.NodeID]*robotTrack
	manager   radio.NodeID
	target    radio.NodeID
	targetLoc geom.Point
}

// KnowsRobot reports the last location the sensor heard for a robot.
func (s *Sensor) KnowsRobot(id radio.NodeID) (geom.Point, bool) {
	if tr := s.robotAt(id); tr != nil {
		return tr.loc, true
	}
	return geom.Point{}, false
}

// tableEntry returns the entry for id in a sensor's neighbor table, read
// through its view.
func tableEntry(s *Sensor, id radio.NodeID) (netstack.Neighbor, bool) {
	it := s.table.View(s.statics()).Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		if n.ID == id {
			return n, true
		}
	}
	return netstack.Neighbor{}, false
}

func (m *trackModel) get(id radio.NodeID) *robotTrack {
	tr, ok := m.tracks[id]
	if !ok {
		tr = &robotTrack{id: int32(id)}
		m.tracks[id] = tr
	}
	return tr
}

// ids returns the model's IDs in ascending order.
func (m *trackModel) ids() []radio.NodeID {
	out := make([]radio.NodeID, 0, len(m.tracks))
	for id := range m.tracks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// closest is the lowest-ID robot nearest to p among the known tracks.
func (m *trackModel) closest(p geom.Point) (radio.NodeID, geom.Point, bool) {
	var bestID radio.NodeID
	var bestLoc geom.Point
	bestD, found := 0.0, false
	for _, id := range m.ids() {
		tr := m.tracks[id]
		if !tr.known {
			continue
		}
		if d := p.Dist2(tr.loc); !found || d < bestD {
			bestID, bestLoc, bestD, found = id, tr.loc, d, true
		}
	}
	return bestID, bestLoc, found
}

// TestSparseTracksMatchMapModel interleaves robot updates, flood
// duplicate checks, manager takeovers and expiry at random over robot IDs
// up to 2,000, the high ones heard first so that later, lower IDs insert
// at the front of the list. After every step the sensor must agree with a
// map model on what it knows, on the closest robot to itself and to a
// failure site (robots placed on rings around both, so equidistant robots
// exercise the lowest-ID tie-break), and on its checkpoint encoding, whose
// track sections are written in ID order.
func TestSparseTracksMatchMapModel(t *testing.T) {
	const expiry = 20
	ring := func(r float64) []geom.Point {
		return []geom.Point{
			geom.Pt(r, 0), geom.Pt(0, r), geom.Pt(-r, 0), geom.Pt(0, -r),
			geom.Pt(0.6*r, 0.8*r), geom.Pt(-0.8*r, 0.6*r), geom.Pt(0.8*r, -0.6*r),
		}
	}
	locs := append(ring(50), ring(100)...)
	sites := []geom.Point{geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(-30, 40)}

	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		h := newHarness()
		cfg := testConfig()
		cfg.StrictSeq = true
		cfg.Reliability = Reliability{RobotExpiry: expiry}
		s := NewSensor(1, geom.Pt(0, 0), &Env{Config: cfg, Policy: neverRelay{}, Hooks: &Hooks{}, Medium: h.medium})
		m := &trackModel{tracks: map[radio.NodeID]*robotTrack{}}

		// A pool of distinct IDs in [2, 2000], highest first; step i draws
		// from a prefix that widens as the run goes on.
		pool := []radio.NodeID{2000}
		for _, id := range rnd.Perm(1998)[:40] {
			pool = append(pool, radio.NodeID(id+2))
		}
		sort.Slice(pool, func(i, j int) bool { return pool[i] > pool[j] })
		// KnowsRobot is also asked about IDs never heard, 1 and 0 among
		// them, and one no station has.
		probes := append([]radio.NodeID{1, 0, -1}, pool...)

		now := sim.Time(0)
		const steps = 400
		for step := 0; step < steps; step++ {
			now += sim.Time(rnd.Intn(4))
			id := pool[rnd.Intn(1+step*len(pool)/steps)]
			loc := locs[rnd.Intn(len(locs))]
			seq := uint64(rnd.Intn(12))
			switch op := rnd.Intn(20); {
			case op < 8:
				s.noteRobot(wire.RobotUpdate{Robot: id, Loc: loc, Seq: seq}, now)
				tr := m.get(id)
				if tr.known && seq < tr.seq {
					break
				}
				tr.loc, tr.seq, tr.heard, tr.known = loc, seq, now, true
				if id == m.target {
					m.targetLoc = loc
				}
			case op < 15:
				got := s.freshFlood(netstack.FloodMsg{Origin: id, Seq: seq})
				tr := m.get(id)
				want := !tr.flooded || seq > tr.floodSeq
				if want {
					tr.floodSeq, tr.flooded = seq, true
				}
				if got != want {
					t.Fatalf("seed %d step %d: freshFlood(%d, %d) = %v, want %v", seed, step, id, seq, got, want)
				}
			case op < 16:
				s.adoptManager(wire.ManagerTakeover{Manager: id, Loc: loc}, now)
				m.manager = id
				tr := m.get(id)
				tr.loc, tr.heard, tr.known = loc, now, true
				m.target, m.targetLoc = id, loc
			default:
				s.expireRobots(now)
				deadline := now.Sub(expiry)
				for _, rid := range m.ids() {
					tr := m.tracks[rid]
					if !tr.known || rid == m.manager || tr.heard >= deadline {
						continue
					}
					*tr = robotTrack{id: tr.id, floodSeq: tr.floodSeq, flooded: tr.flooded}
					if m.target == rid {
						m.target = 0
					}
				}
				if m.target == 0 {
					if cid, cloc, ok := m.closest(s.pos); ok {
						m.target, m.targetLoc = cid, cloc
					}
				}
			}
			checkTracks(t, seed, step, s, m, probes, sites)
		}
	}
}

// checkTracks compares s against the model after one step.
func checkTracks(t *testing.T, seed int64, step int, s *Sensor, m *trackModel, probes []radio.NodeID, sites []geom.Point) {
	t.Helper()
	for _, id := range probes {
		loc, ok := s.KnowsRobot(id)
		tr, heard := m.tracks[id]
		if wantOK := heard && tr.known; ok != wantOK || (ok && !loc.Eq(tr.loc)) {
			t.Fatalf("seed %d step %d: KnowsRobot(%d) = %v, %v; model %v", seed, step, id, loc, ok, tr)
		}
	}
	if id, loc := s.Target(); id != m.target || !loc.Eq(m.targetLoc) {
		t.Fatalf("seed %d step %d: target %d at %v, model %d at %v", seed, step, id, loc, m.target, m.targetLoc)
	}
	gotID, gotLoc, gotOK := s.ClosestKnownRobot()
	wantID, wantLoc, wantOK := m.closest(s.pos)
	if gotID != wantID || !gotLoc.Eq(wantLoc) || gotOK != wantOK {
		t.Fatalf("seed %d step %d: ClosestKnownRobot = %d %v %v, model %d %v %v",
			seed, step, gotID, gotLoc, gotOK, wantID, wantLoc, wantOK)
	}
	for _, site := range sites {
		gotID, gotLoc := s.reportTarget(site)
		wantID, wantLoc, ok := m.closest(site)
		if m.manager != 0 || !ok {
			wantID, wantLoc = m.target, m.targetLoc
		}
		if gotID != wantID || !gotLoc.Eq(wantLoc) {
			t.Fatalf("seed %d step %d: reportTarget(%v) = %d %v, model %d %v", seed, step, site, gotID, gotLoc, wantID, wantLoc)
		}
	}
	// The model's tracks, in ID order, must encode exactly as the sensor's.
	ref := *s
	ref.robots = nil
	for _, id := range m.ids() {
		ref.robots = append(ref.robots, *m.tracks[id])
	}
	if got, want := s.AppendState(nil), ref.AppendState(nil); !bytes.Equal(got, want) {
		t.Fatalf("seed %d step %d: AppendState differs from the model's ID-ordered encoding", seed, step)
	}
}

// TestOneHighRobotOneTrack pins the sparse layout: a sensor that heard
// only robot 1999, as an update and as a flood origin, holds one track,
// not a table sized to the highest robot ID.
func TestOneHighRobotOneTrack(t *testing.T) {
	h := newHarness()
	cfg := testConfig()
	s := NewSensor(1, geom.Pt(0, 0), &Env{Config: cfg, Policy: neverRelay{}, Hooks: &Hooks{}, Medium: h.medium})
	s.noteRobot(wire.RobotUpdate{Robot: 1999, Loc: geom.Pt(40, 0), Seq: 1}, 0)
	s.freshFlood(netstack.FloodMsg{Origin: 1999, Seq: 1})
	if len(s.robots) != 1 || cap(s.robots) != 1 {
		t.Fatalf("sensor holds %d tracks (cap %d), want exactly 1", len(s.robots), cap(s.robots))
	}
	if id, _, ok := s.ClosestKnownRobot(); !ok || id != 1999 {
		t.Fatalf("ClosestKnownRobot = %d, %v; want 1999", id, ok)
	}
}
