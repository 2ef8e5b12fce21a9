package radio

import (
	"slices"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

// airStation is a station for the contention differential test: static
// sensors never move, mobile stations move only through the test, which
// calls Moved after every move.
type airStation struct {
	id     NodeID
	pos    geom.Point
	rng    float64
	mobile bool
	active bool
	got    func(dst NodeID, f Frame)
}

func (s *airStation) RadioID() NodeID      { return s.id }
func (s *airStation) RadioPos() geom.Point { return s.pos }
func (s *airStation) RadioRange() float64  { return s.rng }
func (s *airStation) RadioActive() bool    { return s.active }
func (s *airStation) RadioMobile() bool    { return s.mobile }
func (s *airStation) HandleFrame(f Frame)  { s.got(s.id, f) }

// refTx is the reference model's view of one contended send: the
// sender's snapshot at Send and, once on the air, its interval and the
// stations that hear it — every attached active station within range of
// the snapshot at transmit start, by brute-force pairwise distance, plus
// the sender itself.
type refTx struct {
	id         uint64
	f          Frame
	from       geom.Point
	rng        float64
	onAir      bool
	start, end sim.Time
	hears      []bool
}

// TestContendedMarkingMatchesReference checks the contention model's
// marking against a brute-force reference. Seeded fields of static 63 m
// sensors and mobile 250 m stations exchange overlapping broadcast and
// unicast sends while the mobile stations move, stations toggle activity
// and stations detach and re-attach. After every event, every station's
// carrier-sense verdict (busyUntil) and every collision verdict of every
// frame in flight equal the reference's, and each frame reaches exactly
// the in-range active stations the reference says it did not collide at.
func TestContendedMarkingMatchesReference(t *testing.T) {
	const (
		side    = 300.0
		sensors = 60
		mobiles = 4
		sends   = 400
		airtime = 0.001
	)
	for seed := int64(1); seed <= 10; seed++ {
		r := rng.New(seed)
		m, reg, sched := newTestMedium(Config{
			CellSize:   63,
			Contention: ContentionConfig{Airtime: airtime, MaxBackoff: 4 * airtime, Rand: rng.New(seed + 1000)},
		})
		var txs []*refTx
		byID := map[uint64]*refTx{}
		delivered := map[uint64][]NodeID{}
		record := func(dst NodeID, f Frame) {
			id := f.Payload.(uint64)
			delivered[id] = append(delivered[id], dst)
		}
		stations := make([]*airStation, sensors+mobiles+1)
		for i := 1; i <= sensors+mobiles; i++ {
			s := &airStation{id: NodeID(i), pos: geom.Pt(r.Uniform(0, side), r.Uniform(0, side)),
				rng: 63, active: true, got: record}
			if i > sensors {
				s.mobile, s.rng = true, 250
			}
			stations[i] = s
			m.Attach(s)
		}
		attached := func(id int) bool { return m.Station(NodeID(id)) != nil }
		inRange := func(from geom.Point, rng float64, id int) bool {
			s := stations[id]
			return attached(id) && s.active && from.Dist2(s.pos) <= rng*rng
		}
		// refCollided is the reference collision verdict: some other frame
		// on the air overlapping f was heard at the station.
		refCollided := func(f *refTx, id int) bool {
			for _, g := range txs {
				if g != f && g.onAir && g.hears[id] && g.start < f.end && f.start < g.end {
					return true
				}
			}
			return false
		}

		// Sends arrive every ~airtime, so backoffs, deferrals and airtimes
		// of neighbouring sends overlap; the field churns between them.
		at := sim.Time(0)
		for k := 0; k < sends; k++ {
			at += sim.Time(r.Uniform(0, 2*airtime))
			sched.At(at, func() {
				src := 1 + r.Intn(sensors+mobiles)
				s := stations[src]
				f := Frame{Src: NodeID(src), Dst: IDBroadcast, Category: "x"}
				if dst := 1 + r.Intn(sensors+mobiles); dst != src && r.Intn(3) == 0 {
					f.Dst = NodeID(dst)
				}
				before := m.frameSeq
				f.Payload = before + 1
				m.Send(f)
				if m.frameSeq == before {
					if attached(src) && s.active {
						t.Fatalf("seed %d: active n%d's send not accepted", seed, src)
					}
					return
				}
				tx := &refTx{id: m.frameSeq, f: f, from: s.pos, rng: s.rng}
				txs = append(txs, tx)
				byID[tx.id] = tx
			})
			churn := at + sim.Time(r.Uniform(0, 2*airtime))
			sched.At(churn, func() {
				id := 1 + r.Intn(sensors+mobiles)
				s := stations[id]
				switch op := r.Intn(6); {
				case op <= 2 && s.mobile && attached(id):
					old := s.pos
					s.pos = geom.Pt(r.Uniform(0, side), r.Uniform(0, side))
					m.Moved(s.RadioID(), old)
				case op == 3 && attached(id):
					s.active = !s.active
					m.SetActive(s.RadioID(), s.active)
				case op == 4 && attached(id):
					m.Detach(s.RadioID())
				case op == 5 && !attached(id):
					m.Attach(s)
				}
			})
		}

		steps := 0
		for sched.Step() {
			steps++
			now := sched.Now()
			// A frame goes on the air at the event that first marks it;
			// the reference takes its audible set right then.
			for _, tx := range txs {
				if tx.onAir {
					continue
				}
				for id := range m.air.byStation {
					for _, e := range m.air.log(NodeID(id)) {
						if e.frame == tx.id {
							tx.onAir, tx.start, tx.end = true, e.start, e.end
						}
					}
				}
				if !tx.onAir {
					continue
				}
				if tx.start != now {
					t.Fatalf("seed %d step %d: frame %d marked at %v, found at %v", seed, steps, tx.id, tx.start, now)
				}
				tx.hears = make([]bool, len(stations))
				tx.hears[tx.f.Src] = true
				for id := 1; id < len(stations); id++ {
					if id != int(tx.f.Src) && inRange(tx.from, tx.rng, id) {
						tx.hears[id] = true
					}
				}
			}

			// Carrier sense at every station.
			for id := 0; id < len(stations); id++ {
				var wantUntil sim.Time
				wantBusy := false
				for _, g := range txs {
					if g.onAir && g.hears[id] && g.start <= now && now < g.end {
						wantBusy = true
						wantUntil = max(wantUntil, g.end)
					}
				}
				until, busy := m.air.busyUntil(NodeID(id), now)
				if busy != wantBusy || until != wantUntil {
					t.Fatalf("seed %d step %d t=%v: busyUntil(n%d) = %v, %v; reference %v, %v",
						seed, steps, now, id, until, busy, wantUntil, wantBusy)
				}
			}

			// Collision verdicts of every frame still in flight.
			for _, f := range txs {
				if !f.onAir || now > f.end {
					continue
				}
				for id := 0; id < len(stations); id++ {
					want := refCollided(f, id)
					if got := m.air.collided(NodeID(id), f.id, f.start, f.end); got != want {
						t.Fatalf("seed %d step %d: collided(n%d, frame %d) = %v, reference %v",
							seed, steps, id, f.id, got, want)
					}
				}
			}

			// Deliveries made by this event: exactly the receivers in
			// range now that heard no overlapping frame.
			for id, got := range delivered {
				f := byID[id]
				if !f.onAir || f.end != now {
					t.Fatalf("seed %d: frame %d delivered at %v, reference airtime [%v, %v)", seed, id, now, f.start, f.end)
				}
				var want []NodeID
				for rx := 1; rx < len(stations); rx++ {
					if rx == int(f.f.Src) || (f.f.Dst != IDBroadcast && NodeID(rx) != f.f.Dst) {
						continue
					}
					if inRange(f.from, f.rng, rx) && !refCollided(f, rx) {
						want = append(want, NodeID(rx))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: frame %d reached %v, reference %v", seed, id, got, want)
				}
			}
			clear(delivered)
		}
		for _, f := range txs {
			if !f.onAir {
				t.Fatalf("seed %d: frame %d never went on the air", seed, f.id)
			}
		}
		if len(txs) < sends/4 || reg.Tx(CatCollision) == 0 {
			t.Fatalf("seed %d: %d frames sent, %d collided receptions: the field is not contended",
				seed, len(txs), reg.Tx(CatCollision))
		}
		t.Logf("seed %d: %d frames, %d steps, %d collided receptions", seed, len(txs), steps, reg.Tx(CatCollision))
	}
}
