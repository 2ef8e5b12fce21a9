package node

import (
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// allowAll is a permissive policy: adopt every robot heard, relay always.
type allowAll struct{}

func (allowAll) Consider(s *Sensor, up wire.RobotUpdate) bool {
	s.SetTarget(up.Robot, up.Loc)
	return true
}
func (allowAll) GuardianOK(_, _ geom.Point) bool { return true }

// neverRelay adopts nothing and never relays.
type neverRelay struct{}

func (neverRelay) Consider(*Sensor, wire.RobotUpdate) bool { return false }
func (neverRelay) GuardianOK(_, _ geom.Point) bool         { return true }

// sameHalf restricts guardians to the same half-plane x<100 / x>=100.
type sameHalf struct{}

func (sameHalf) Consider(*Sensor, wire.RobotUpdate) bool { return false }
func (sameHalf) GuardianOK(a, b geom.Point) bool         { return (a.X < 100) == (b.X < 100) }

// sink is a robot-like station that records packets addressed to it.
type sink struct {
	id      radio.NodeID
	pos     geom.Point
	rng     float64
	packets []netstack.Packet
	frames  []radio.Frame
}

func (s *sink) RadioID() radio.NodeID { return s.id }
func (s *sink) RadioPos() geom.Point  { return s.pos }
func (s *sink) RadioRange() float64   { return s.rng }
func (s *sink) RadioActive() bool     { return true }
func (s *sink) HandleFrame(f radio.Frame) {
	s.frames = append(s.frames, f)
	if p, ok := f.Payload.(netstack.Packet); ok && p.Dst == s.id {
		s.packets = append(s.packets, p)
	}
}

type harness struct {
	sched   *sim.Scheduler
	reg     *metrics.Registry
	medium  *radio.Medium
	sensors []*Sensor
}

func testConfig() Config {
	return Config{
		Range:         63,
		BeaconPeriod:  10,
		MissedBeacons: 3,
		SettleDelay:   5,
		FloodTTL:      32,
	}
}

func newHarness() *harness {
	sched := sim.NewScheduler()
	reg := metrics.NewRegistry()
	return &harness{
		sched:  sched,
		reg:    reg,
		medium: mustMedium(sched, reg, radio.Config{CellSize: 63}),
	}
}

// addSensor creates and boots a sensor at pos with the given policy.
func (h *harness) addSensor(id radio.NodeID, pos geom.Point, policy Policy, hooks Hooks) *Sensor {
	cfg := testConfig()
	s := NewSensor(id, pos, &Env{Config: cfg, Policy: policy, Hooks: &hooks, Medium: h.medium})
	h.sensors = append(h.sensors, s)
	s.Start(0.1, 1, false)
	return s
}

func TestBootAnnouncePopulatesNeighborTables(t *testing.T) {
	h := newHarness()
	a := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	b := h.addSensor(2, geom.Pt(40, 0), allowAll{}, Hooks{})
	far := h.addSensor(3, geom.Pt(200, 0), allowAll{}, Hooks{})
	h.sched.Run(2)
	if _, ok := tableEntry(a, 2); !ok {
		t.Fatal("a did not learn b from its announcement")
	}
	if _, ok := tableEntry(b, 1); !ok {
		t.Fatal("b did not learn a")
	}
	if _, ok := tableEntry(far, 1); ok {
		t.Fatal("far sensor learned out-of-range node")
	}
}

func TestGuardianSelectionNearestNeighbor(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	h.addSensor(2, geom.Pt(30, 0), allowAll{}, Hooks{})
	near := h.addSensor(3, geom.Pt(10, 0), allowAll{}, Hooks{})
	h.sched.Run(6) // past SettleDelay
	if s.guardian != 3 {
		t.Fatalf("guardian = %v, want 3 (nearest)", s.guardian)
	}
	found := false
	for _, g := range near.guardees {
		if g.id == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("confirmation did not register the guardee")
	}
}

func TestGuardianPolicyFilter(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(95, 0), sameHalf{}, Hooks{})
	h.addSensor(2, geom.Pt(105, 0), sameHalf{}, Hooks{}) // nearest but other half
	h.addSensor(3, geom.Pt(60, 0), sameHalf{}, Hooks{})  // same half
	h.sched.Run(6)
	if s.guardian != 3 {
		t.Fatalf("guardian = %v, want 3 (policy-permitted)", s.guardian)
	}
}

func TestIsolatedSensorHasNoGuardian(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	h.sched.Run(10)
	if s.guardian != 0 {
		t.Fatalf("isolated sensor has guardian %v", s.guardian)
	}
}

func TestGuardianReportsFailedGuardee(t *testing.T) {
	h := newHarness()
	robot := &sink{id: 99, pos: geom.Pt(50, 10), rng: 250}
	h.medium.Attach(robot)
	var sent []wire.FailureReport
	hooks := Hooks{OnReportSent: func(r wire.FailureReport) { sent = append(sent, r) }}
	a := h.addSensor(1, geom.Pt(0, 0), allowAll{}, hooks)
	b := h.addSensor(2, geom.Pt(20, 0), allowAll{}, hooks)
	a.SetTarget(99, robot.pos)
	b.SetTarget(99, robot.pos)
	h.sched.Run(20) // guardians selected, beacons flowing
	b.FailNow()
	h.sched.Run(70) // > 3 beacon periods later
	if len(sent) != 1 {
		t.Fatalf("reports sent = %d, want exactly 1", len(sent))
	}
	if sent[0].Failed != 2 || !sent[0].Loc.Eq(b.Pos()) {
		t.Fatalf("report content wrong: %+v", sent[0])
	}
	if len(robot.packets) != 1 {
		t.Fatalf("robot received %d reports, want 1", len(robot.packets))
	}
	rep, ok := robot.packets[0].Payload.(wire.FailureReport)
	if !ok || rep.Failed != 2 {
		t.Fatalf("delivered payload wrong: %+v", robot.packets[0].Payload)
	}
	// Guardian removed the guardee from its table.
	if _, ok := tableEntry(a, 2); ok {
		t.Fatal("failed guardee still in guardian's table")
	}
}

func TestGuardeeReselectsAfterGuardianFailure(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	g1 := h.addSensor(2, geom.Pt(10, 0), allowAll{}, Hooks{})
	h.addSensor(3, geom.Pt(25, 0), allowAll{}, Hooks{})
	h.sched.Run(20)
	if s.guardian != 2 {
		t.Fatalf("initial guardian = %v", s.guardian)
	}
	g1.FailNow()
	h.sched.Run(80)
	if s.guardian != 3 {
		t.Fatalf("guardian after failure = %v, want 3", s.guardian)
	}
}

func TestNoTargetMeansNoReport(t *testing.T) {
	h := newHarness()
	var sent int
	hooks := Hooks{OnReportSent: func(wire.FailureReport) { sent++ }}
	h.addSensor(1, geom.Pt(0, 0), neverRelay{}, hooks)
	b := h.addSensor(2, geom.Pt(20, 0), neverRelay{}, hooks)
	h.sched.Run(20)
	b.FailNow()
	h.sched.Run(80)
	if sent != 0 {
		t.Fatalf("targetless sensor sent %d reports", sent)
	}
}

func TestReplacementAnnouncementTriggersBeacons(t *testing.T) {
	h := newHarness()
	h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	h.addSensor(2, geom.Pt(30, 0), allowAll{}, Hooks{})
	h.sched.Run(20)
	before := h.reg.Tx(metrics.CatReplacement)
	// Boot a replacement node adjacent to both.
	cfg := testConfig()
	r := NewSensor(50, geom.Pt(15, 0), &Env{Config: cfg, Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium})
	r.Start(0, 1, true)
	h.sched.Run(21)
	// Announce (1) + two neighbor beacons (2) = 3 replacement transmissions.
	if got := h.reg.Tx(metrics.CatReplacement) - before; got != 3 {
		t.Fatalf("replacement transmissions = %d, want 3", got)
	}
	if r.Table().Len() != 2 {
		t.Fatalf("replacement learned %d neighbors, want 2", r.Table().Len())
	}
}

func TestNoteRobotRangeGating(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	h.sched.Run(2)
	// In-range robot announce enters the neighbor table.
	s.HandleFrame(radio.Frame{Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(40, 0), Seq: 1}})
	if _, ok := tableEntry(s, 90); !ok {
		t.Fatal("in-range robot not in table")
	}
	// The same robot moving out of range leaves the table but stays known.
	s.HandleFrame(radio.Frame{Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(150, 0), Seq: 2}})
	if _, ok := tableEntry(s, 90); ok {
		t.Fatal("out-of-range robot still in table")
	}
	if loc, ok := s.KnowsRobot(90); !ok || !loc.Eq(geom.Pt(150, 0)) {
		t.Fatalf("robot location not tracked: %v %v", loc, ok)
	}
}

func TestTargetLocFollowsTargetRobot(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), neverRelay{}, Hooks{})
	s.SetTarget(90, geom.Pt(40, 0))
	h.sched.Run(2)
	s.HandleFrame(radio.Frame{Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(60, 0), Seq: 5}})
	if _, loc := s.Target(); !loc.Eq(geom.Pt(60, 0)) {
		t.Fatalf("targetLoc = %v, want updated", loc)
	}
	// Updates from a different robot do not move the target location.
	s.HandleFrame(radio.Frame{Payload: wire.RobotUpdate{Robot: 91, Loc: geom.Pt(70, 0), Seq: 1}})
	if id, loc := s.Target(); id != 90 || !loc.Eq(geom.Pt(60, 0)) {
		t.Fatalf("target drifted: %v %v", id, loc)
	}
}

func TestClosestKnownRobot(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), neverRelay{}, Hooks{})
	if _, _, ok := s.ClosestKnownRobot(); ok {
		t.Fatal("no robots known yet")
	}
	s.HandleFrame(radio.Frame{Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(100, 0), Seq: 1}})
	s.HandleFrame(radio.Frame{Payload: wire.RobotUpdate{Robot: 91, Loc: geom.Pt(50, 0), Seq: 1}})
	id, loc, ok := s.ClosestKnownRobot()
	if !ok || id != 91 || !loc.Eq(geom.Pt(50, 0)) {
		t.Fatalf("ClosestKnownRobot = %v %v %v", id, loc, ok)
	}
}

func TestFloodRelayAndDeduplication(t *testing.T) {
	h := newHarness()
	// Chain of sensors 40 m apart; a flood entering at one end must be
	// relayed by each exactly once.
	for i := 0; i < 4; i++ {
		h.addSensor(radio.NodeID(i+1), geom.Pt(float64(i)*40, 0), allowAll{}, Hooks{})
	}
	h.sched.Run(2)
	before := h.reg.Tx(metrics.CatLocUpdate)
	msg := netstack.FloodMsg{
		Origin:   90,
		Seq:      2,
		Category: metrics.CatLocUpdate,
		Payload:  wire.RobotUpdate{Robot: 90, Loc: geom.Pt(0, 0), Seq: 2},
		TTL:      32,
	}
	h.sensors[0].HandleFrame(radio.Frame{Payload: msg})
	relays := h.reg.Tx(metrics.CatLocUpdate) - before
	if relays != 4 {
		t.Fatalf("relays = %d, want 4 (each sensor exactly once)", relays)
	}
	// Re-injecting the same flood instance produces no new relays.
	h.sensors[0].HandleFrame(radio.Frame{Payload: msg})
	if h.reg.Tx(metrics.CatLocUpdate)-before != 4 {
		t.Fatal("duplicate flood instance was relayed again")
	}
}

func TestFloodTTLBoundsPropagation(t *testing.T) {
	h := newHarness()
	for i := 0; i < 6; i++ {
		h.addSensor(radio.NodeID(i+1), geom.Pt(float64(i)*50, 0), allowAll{}, Hooks{})
	}
	h.sched.Run(2)
	before := h.reg.Tx(metrics.CatLocUpdate)
	h.sensors[0].HandleFrame(radio.Frame{Payload: netstack.FloodMsg{
		Origin:   90,
		Seq:      2,
		Category: metrics.CatLocUpdate,
		Payload:  wire.RobotUpdate{Robot: 90, Loc: geom.Pt(0, 0), Seq: 2},
		TTL:      3,
	}})
	// The first sensor relays with TTL 2, the second with TTL 1; the third
	// receives TTL 1 and must not relay: exactly 2 relay transmissions.
	if got := h.reg.Tx(metrics.CatLocUpdate) - before; got != 2 {
		t.Fatalf("relays = %d, want 2 (TTL-bounded)", got)
	}
}

func TestNeverRelayPolicySuppressesFlood(t *testing.T) {
	h := newHarness()
	for i := 0; i < 3; i++ {
		h.addSensor(radio.NodeID(i+1), geom.Pt(float64(i)*40, 0), neverRelay{}, Hooks{})
	}
	h.sched.Run(2)
	before := h.reg.Tx(metrics.CatLocUpdate)
	h.sensors[0].HandleFrame(radio.Frame{Payload: netstack.FloodMsg{
		Origin: 90, Seq: 2, Category: metrics.CatLocUpdate,
		Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(0, 0), Seq: 2}, TTL: 32,
	}})
	if got := h.reg.Tx(metrics.CatLocUpdate) - before; got != 0 {
		t.Fatalf("relays = %d, want 0", got)
	}
}

func TestDeadSensorIsSilent(t *testing.T) {
	h := newHarness()
	a := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	b := h.addSensor(2, geom.Pt(30, 0), allowAll{}, Hooks{})
	h.sched.Run(20)
	beforeBeacons := h.reg.Tx(metrics.CatBeacon)
	a.FailNow()
	if a.Alive() {
		t.Fatal("FailNow did not kill")
	}
	a.FailNow() // idempotent
	h.sched.Run(50)
	// Only b beacons now: 3 ticks in (20,50].
	got := h.reg.Tx(metrics.CatBeacon) - beforeBeacons
	if got != 3 {
		t.Fatalf("beacons after death = %d, want 3 (only the live sensor)", got)
	}
	// Dead sensor ignores incoming frames.
	a.HandleFrame(radio.Frame{Payload: wire.Beacon{From: 2, Loc: b.Pos()}})
	if _, ok := tableEntry(a, 2); ok {
		// Entry may exist from before death: confirm it is not refreshed.
		n, _ := tableEntry(a, 2)
		if n.LastHeard >= 20 {
			t.Fatal("dead sensor processed a frame")
		}
	}
}

func TestStaleNeighborPurgedButRobotRetained(t *testing.T) {
	h := newHarness()
	a := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	b := h.addSensor(2, geom.Pt(20, 0), allowAll{}, Hooks{})
	h.addSensor(3, geom.Pt(15, 15), allowAll{}, Hooks{}) // a's guardian candidate
	h.sched.Run(12)
	// Robot announce in range: enters the table and the robot registry.
	a.HandleFrame(radio.Frame{Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(30, 0), Seq: 1}})
	b.FailNow()
	h.sched.Run(100)
	if _, ok := tableEntry(a, 2); ok {
		t.Fatal("stale dead sensor not purged")
	}
	if _, ok := tableEntry(a, 90); !ok {
		t.Fatal("robot was purged from table despite being exempt")
	}
}

// mustMedium builds a medium for a config that cannot fail validation.
func mustMedium(sched *sim.Scheduler, reg *metrics.Registry, cfg radio.Config) *radio.Medium {
	m, err := radio.NewMedium(sched, reg, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// TestFloodDedupPerOrigin pins the flood duplicate suppression the robot
// tracks hold: per origin, a repeated or lower Seq is stale, a higher one
// is fresh, origins are independent, and the handled Seq outlives the
// expiry of the origin's track.
func TestFloodDedupPerOrigin(t *testing.T) {
	h := newHarness()
	cfg := testConfig()
	cfg.Reliability.RobotExpiry = 20
	s := NewSensor(1, geom.Pt(0, 0), &Env{Config: cfg, Policy: neverRelay{}, Hooks: &Hooks{}, Medium: h.medium})
	s.Start(0.1, 1, false)
	h.sched.Run(2)
	fresh := func(origin radio.NodeID, seq uint64) bool {
		return s.freshFlood(netstack.FloodMsg{Origin: origin, Seq: seq})
	}
	if !fresh(7, 1) {
		t.Fatal("first copy should be fresh")
	}
	if fresh(7, 1) {
		t.Fatal("duplicate should not be fresh")
	}
	if fresh(7, 0) {
		t.Fatal("stale lower-seq instance should not be fresh")
	}
	if !fresh(7, 2) {
		t.Fatal("next seq should be fresh")
	}
	if !fresh(8, 1) {
		t.Fatal("different origin should be independent")
	}
	if fresh(-1, 1) {
		t.Fatal("a negative origin names no station and must be dropped")
	}

	// Robot 9's update is handled, then its track expires unheard: the
	// same flood instance arriving late must still be a duplicate.
	up := netstack.FloodMsg{Origin: 9, Seq: 4, Category: metrics.CatLocUpdate,
		Payload: wire.RobotUpdate{Robot: 9, Loc: geom.Pt(30, 0), Seq: 4}, TTL: 8}
	s.HandleFrame(radio.Frame{Payload: up})
	if _, ok := s.KnowsRobot(9); !ok {
		t.Fatal("robot 9 not tracked")
	}
	h.sched.Run(40)
	if _, ok := s.KnowsRobot(9); ok {
		t.Fatal("robot 9 did not expire")
	}
	s.HandleFrame(radio.Frame{Payload: up})
	if _, ok := s.KnowsRobot(9); ok {
		t.Fatal("a duplicate flood revived an expired robot")
	}
}

// lastFloodSeq reads the highest flood Seq s has handled from origin out
// of its robot tracks; ok is false when no flood from origin was handled.
func lastFloodSeq(s *Sensor, origin radio.NodeID) (uint64, bool) {
	i, ok := s.robotIndex(origin)
	if !ok || !s.robots[i].flooded {
		return 0, false
	}
	return s.robots[i].floodSeq, true
}

// TestFloodLastSeq pins what the robot tracks remember per flood origin:
// nothing before a flood is handled, the highest Seq handled after, and
// nothing for an origin that was only heard as a robot, never flooded.
func TestFloodLastSeq(t *testing.T) {
	h := newHarness()
	cfg := testConfig()
	s := NewSensor(1, geom.Pt(0, 0), &Env{Config: cfg, Policy: neverRelay{}, Hooks: &Hooks{}, Medium: h.medium})
	if _, ok := lastFloodSeq(s, 1); ok {
		t.Fatal("a new sensor should know no flood origin")
	}
	s.freshFlood(netstack.FloodMsg{Origin: 1, Seq: 5})
	if seq, ok := lastFloodSeq(s, 1); !ok || seq != 5 {
		t.Fatalf("last flood seq = %d, %v; want 5, true", seq, ok)
	}
	s.freshFlood(netstack.FloodMsg{Origin: 1, Seq: 3})
	if seq, ok := lastFloodSeq(s, 1); !ok || seq != 5 {
		t.Fatalf("a stale instance moved the last flood seq to %d, %v", seq, ok)
	}
	if _, ok := lastFloodSeq(s, 0); ok {
		t.Fatal("an origin below a handled one should report !ok")
	}
	if _, ok := lastFloodSeq(s, 2); ok {
		t.Fatal("unknown origin should report !ok")
	}
	s.noteRobot(wire.RobotUpdate{Robot: 3, Loc: geom.Pt(5, 0), Seq: 2}, 0)
	if _, ok := s.KnowsRobot(3); !ok {
		t.Fatal("robot 3 not tracked")
	}
	if _, ok := lastFloodSeq(s, 3); ok {
		t.Fatal("a robot heard but never flooded should report !ok")
	}
}
