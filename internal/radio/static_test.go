package radio

import (
	"slices"
	"testing"

	"roborepair/internal/geom"
)

// cacheStation is a station for the static-cache differential test. A
// mobile one reports RadioMobile and may drift between Moved calls, as a
// robot interpolating along its travel leg does.
type cacheStation struct {
	id     NodeID
	pos    geom.Point
	rng    float64
	mobile bool
	recv   func(s *cacheStation, f Frame)
}

func (s *cacheStation) RadioID() NodeID      { return s.id }
func (s *cacheStation) RadioPos() geom.Point { return s.pos }
func (s *cacheStation) RadioRange() float64  { return s.rng }
func (s *cacheStation) RadioActive() bool    { return true }
func (s *cacheStation) RadioMobile() bool    { return s.mobile }
func (s *cacheStation) HandleFrame(f Frame)  { s.recv(s, f) }

var _ MobileStation = (*cacheStation)(nil)

// relayMsg tags a test frame with its sequence number and relay depth.
type relayMsg struct{ seq, depth int }

// deliveryLog is an Auditor recording each frame's receivers in delivery
// order.
type deliveryLog struct{ got map[int][]NodeID }

func (l *deliveryLog) FrameSent(Frame)       {}
func (l *deliveryLog) FrameDuplicated(Frame) {}
func (l *deliveryLog) FrameDelivered(f Frame, _ geom.Point, _ float64, dst Station) {
	seq := f.Payload.(relayMsg).seq
	l.got[seq] = append(l.got[seq], dst.RadioID())
}

// TestStaticCacheMatchesGrid drives the medium through a seeded churn —
// static attaches (replacements booting at a failed sensor's position
// among them), activity toggles, robots drifting and crossing cells,
// detaches, re-attaches, static moves and senders changing range — and
// checks every broadcast against the grid query: the receivers and their
// order must equal inRangeAppend's at the moment of the Send. The first
// receiver of every frame relays it, three levels deep, so the per-depth
// delivery buffers are exercised by re-entrant sends.
func TestStaticCacheMatchesGrid(t *testing.T) {
	const (
		side     = 800.0 // the paper's field and density
		sensors  = 800
		robots   = 16
		maxDepth = 3
	)
	m, _, _ := newTestMedium(Config{CellSize: 63})
	log := &deliveryLog{got: map[int][]NodeID{}}
	m.SetAuditor(log)
	rng := gridRNG(0xC0FFEE)
	ranges := []float64{40, 63, 63, 63, 90, 150}

	var (
		all      []*cacheStation // by ID
		attached []bool
		active   []bool
		want     = map[int][]NodeID{}
		seq      int
		deepest  int
		send     func(s *cacheStation, depth int)
	)
	recv := func(s *cacheStation, f Frame) {
		msg := f.Payload.(relayMsg)
		if msg.depth < maxDepth && len(log.got[msg.seq]) == 1 {
			send(s, msg.depth+1)
		}
	}
	send = func(s *cacheStation, depth int) {
		seq++
		var ids []NodeID
		for _, n := range m.inRangeAppend(nil, m.posOf(s.id), s.rng, s.id) {
			ids = append(ids, n.id)
		}
		want[seq] = ids
		deepest = max(deepest, depth)
		m.Send(Frame{Src: s.id, Dst: IDBroadcast, Category: "x", Payload: relayMsg{seq: seq, depth: depth}})
	}
	randPos := func() geom.Point { return geom.Pt(rng.float()*side, rng.float()*side) }
	attach := func(s *cacheStation) {
		m.Attach(s)
		attached[s.id], active[s.id] = true, true
	}
	add := func(pos geom.Point, mobile bool) *cacheStation {
		s := &cacheStation{id: NodeID(len(all)), pos: pos, rng: 63, mobile: mobile, recv: recv}
		all = append(all, s)
		attached = append(attached, false)
		active = append(active, false)
		attach(s)
		return s
	}
	pick := func(ok func(s *cacheStation) bool) *cacheStation {
		for try := 0; try < 50; try++ {
			if s := all[rng.next()%uint64(len(all))]; ok(s) {
				return s
			}
		}
		return nil
	}
	live := func(s *cacheStation) bool { return attached[s.id] && active[s.id] }
	liveStatic := func(s *cacheStation) bool { return live(s) && !s.mobile }

	for i := 0; i < sensors; i++ {
		add(randPos(), false)
	}
	for i := 0; i < robots; i++ {
		add(randPos(), true)
	}

	sends := 0
	for op := 0; op < 40_000; op++ {
		switch rng.next() % 16 {
		case 0, 1, 2, 3, 4, 5: // broadcast, mostly from static senders
			if s := pick(live); s != nil {
				send(s, 0)
				sends++
			}
		case 6: // activity toggle
			if s := pick(func(s *cacheStation) bool { return attached[s.id] }); s != nil {
				active[s.id] = !active[s.id]
				m.SetActive(s.id, active[s.id])
			}
		case 7: // a sensor fails and its replacement boots at its position
			if s := pick(liveStatic); s != nil {
				active[s.id] = false
				m.SetActive(s.id, false)
				add(s.pos, false)
			}
		case 8, 9: // a robot drifts along its leg without a Moved call
			if s := pick(func(s *cacheStation) bool { return s.mobile && attached[s.id] }); s != nil {
				s.pos = geom.Pt(s.pos.X+rng.float()*40-20, s.pos.Y+rng.float()*40-20)
			}
		case 10: // a robot moves, usually across cells, and reports it
			if s := pick(func(s *cacheStation) bool { return s.mobile && attached[s.id] }); s != nil {
				old := s.pos
				s.pos = randPos()
				m.Moved(s.id, old)
			}
		case 11: // detach
			if s := pick(func(s *cacheStation) bool { return attached[s.id] }); s != nil {
				m.Detach(s.id)
				attached[s.id] = false
			}
		case 12: // re-attach a detached station somewhere else
			if s := pick(func(s *cacheStation) bool { return !attached[s.id] }); s != nil {
				s.pos = randPos()
				attach(s)
			}
		case 13: // a static sender's range changes
			if s := pick(liveStatic); s != nil {
				s.rng = ranges[rng.next()%uint64(len(ranges))]
			}
		case 14: // a static station is repositioned and reports it
			if s := pick(liveStatic); s != nil {
				old := s.pos
				s.pos = randPos()
				m.Moved(s.id, old)
			}
		case 15: // a new sensor joins the field
			add(randPos(), false)
		}
		if m.depth != 0 {
			t.Fatalf("op %d: %d delivery buffers still in use after the send returned", op, m.depth)
		}
	}

	if sends < 1000 || deepest < maxDepth || m.cacheRange == 0 {
		t.Fatalf("churn too tame: %d sends, deepest relay %d, largest cached range %v",
			sends, deepest, m.cacheRange)
	}
	for s := 1; s <= seq; s++ {
		if !slices.Equal(log.got[s], want[s]) {
			t.Fatalf("frame %d: delivered to %v, grid query says %v", s, log.got[s], want[s])
		}
	}
}

// TestStaticDegreeReentrant calls StaticSet from inside deliveries — how
// a sensor's table reads its static set on the first frame it hears —
// while broadcasts from senders with no set yet are still delivering. The
// builds it triggers grow and reallocate the arena mid-delivery; every
// broadcast must still reach exactly the grid query's receivers in the
// grid query's order, and every set must equal a brute-force list of the
// static stations in range.
func TestStaticDegreeReentrant(t *testing.T) {
	const side, sensors, robots = 400.0, 200, 4
	m, _, _ := newTestMedium(Config{CellSize: 63})
	log := &deliveryLog{got: map[int][]NodeID{}}
	m.SetAuditor(log)
	rng := gridRNG(0x5EED)
	var all []*cacheStation
	brute := func(s *cacheStation) []int32 {
		var ids []int32
		for _, o := range all {
			if o.id != s.id && !o.mobile && s.pos.Dist2(o.pos) <= s.rng*s.rng {
				ids = append(ids, int32(o.id))
			}
		}
		return ids
	}
	calls := 0
	recv := func(s *cacheStation, _ Frame) {
		ids, _, _ := m.StaticSet(s.id)
		if s.mobile {
			if len(ids) != 0 {
				t.Errorf("mobile station %d: static set %v, want none", s.id, ids)
			}
			return
		}
		calls++
		if want := brute(s); !slices.Equal(ids, want) {
			t.Errorf("station %d: static set %v, want %v", s.id, ids, want)
		}
	}
	for i := 0; i < sensors+robots; i++ {
		s := &cacheStation{
			id: NodeID(i), pos: geom.Pt(rng.float()*side, rng.float()*side),
			rng: 63, mobile: i >= sensors, recv: recv,
		}
		all = append(all, s)
		m.Attach(s)
	}
	if ids, _, _ := m.StaticSet(NodeID(len(all))); ids != nil {
		t.Fatalf("unattached station: static set %v, want nil", ids)
	}
	want := map[int][]NodeID{}
	for seq, s := range all {
		var ids []NodeID
		for _, n := range m.inRangeAppend(nil, m.posOf(s.id), s.rng, s.id) {
			ids = append(ids, n.id)
		}
		want[seq] = ids
		m.Send(Frame{Src: s.id, Dst: IDBroadcast, Category: "x", Payload: relayMsg{seq: seq}})
	}
	if calls == 0 {
		t.Fatal("no delivery called StaticSet")
	}
	for seq := range all {
		if !slices.Equal(log.got[seq], want[seq]) {
			t.Fatalf("frame %d: receivers %v, want %v", seq, log.got[seq], want[seq])
		}
	}
}

// TestStaticSetReportsChanges churns a field — replacements attaching,
// stations detaching, re-attaching and moving, senders broadcasting (which
// rebuilds sets without reading them) and the arena compacting — while
// reading random stations' sets, and checks StaticSet's contract against
// a record of what each station was last told: a read reports a change
// exactly when the list differs in storage from the one the previous read
// returned, prev then equals that list element for element, and every
// list equals a brute-force scan of the static stations in range.
func TestStaticSetReportsChanges(t *testing.T) {
	const side = 300.0
	m, _, _ := newTestMedium(Config{CellSize: 63})
	rng := gridRNG(0xACED)
	var all []*cacheStation
	attached := map[NodeID]bool{}
	add := func() {
		s := &cacheStation{id: NodeID(len(all)), pos: geom.Pt(rng.float()*side, rng.float()*side), rng: 63, recv: func(*cacheStation, Frame) {}}
		all = append(all, s)
		attached[s.id] = true
		m.Attach(s)
	}
	for i := 0; i < 150; i++ {
		add()
	}
	last := map[NodeID][]int32{} // what each station's previous read returned (copied)
	brute := func(s *cacheStation) []int32 {
		ids := []int32{}
		for _, o := range all {
			if o.id != s.id && attached[o.id] && s.pos.Dist2(o.pos) <= s.rng*s.rng {
				ids = append(ids, int32(o.id))
			}
		}
		return ids
	}
	changes, compactions, dead := 0, 0, 0
	for op := 0; op < 20_000; op++ {
		if m.arenaDead < dead { // only a compaction lowers the dead count
			compactions++
		}
		dead = m.arenaDead
		s := all[rng.next()%uint64(len(all))]
		switch rng.next() % 8 {
		case 0:
			add()
		case 1:
			if attached[s.id] {
				m.Detach(s.id)
				attached[s.id] = false
			} else {
				s.pos = geom.Pt(rng.float()*side, rng.float()*side)
				m.Attach(s)
				attached[s.id] = true
			}
		case 2:
			if attached[s.id] {
				old := s.pos
				s.pos = geom.Pt(rng.float()*side, rng.float()*side)
				m.Moved(s.id, old)
			}
		case 3, 4:
			m.Send(Frame{Src: s.id, Dst: IDBroadcast, Category: "x", Payload: relayMsg{}})
		default:
			ids, prev, changed := m.StaticSet(s.id)
			before, seen := last[s.id]
			if changed {
				changes++
				if !slices.Equal(prev, before) && (seen || len(prev) != 0) {
					t.Fatalf("op %d: station %d: prev %v, previous read returned %v", op, s.id, prev, before)
				}
			} else if seen && !slices.Equal(ids, before) {
				t.Fatalf("op %d: station %d: set went %v -> %v unreported", op, s.id, before, ids)
			}
			last[s.id] = slices.Clone(ids)
			if attached[s.id] && !slices.Equal(ids, brute(s)) {
				t.Fatalf("op %d: station %d: set %v, want %v", op, s.id, ids, brute(s))
			}
		}
	}
	if changes < 100 || compactions == 0 {
		t.Fatalf("churn too tame: %d reported changes, %d compactions", changes, compactions)
	}
}
