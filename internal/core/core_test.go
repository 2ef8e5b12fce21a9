package core

import (
	"encoding/json"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/node"
	"roborepair/internal/radio"
	"roborepair/internal/robot"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

func TestAlgorithmNames(t *testing.T) {
	tests := []struct {
		alg  Algorithm
		name string
	}{
		{Centralized, "centralized"},
		{Fixed, "fixed"},
		{Dynamic, "dynamic"},
	}
	for _, tt := range tests {
		if tt.alg.String() != tt.name {
			t.Errorf("String(%q) = %q", string(tt.alg), tt.alg.String())
		}
	}
	if Algorithm("bogus").String() == "" {
		t.Error("unknown algorithm should still format")
	}
}

type coreRig struct {
	sched  *sim.Scheduler
	reg    *metrics.Registry
	medium *radio.Medium
}

func newCoreRig() *coreRig {
	sched := sim.NewScheduler()
	reg := metrics.NewRegistry()
	return &coreRig{sched: sched, reg: reg, medium: mustMedium(sched, reg, radio.Config{CellSize: 63})}
}

func (g *coreRig) sensor(id radio.NodeID, pos geom.Point, p node.Policy) *node.Sensor {
	s := node.NewSensor(id, pos, &node.Env{
		Config: node.Config{Range: 63, BeaconPeriod: 10, MissedBeacons: 3, SettleDelay: 5, FloodTTL: FloodTTL},
		Policy: p, Hooks: &node.Hooks{}, Medium: g.medium,
	})
	s.Start(0.1, 1, false)
	return s
}

func robotUpdateFrame(robotID radio.NodeID, loc geom.Point, seq uint64) radio.Frame {
	return radio.Frame{Payload: netstack.FloodMsg{
		Origin:   robotID,
		Seq:      seq,
		Category: metrics.CatLocUpdate,
		Payload:  wire.RobotUpdate{Robot: robotID, Loc: loc, Seq: seq},
		TTL:      FloodTTL,
	}}
}

func TestCentralizedPolicyAdoptsOnlyManager(t *testing.T) {
	g := newCoreRig()
	p := CentralizedPolicy{ManagerID: 77}
	s := g.sensor(1, geom.Pt(0, 0), p)
	g.sched.Run(2)

	if relay := p.Consider(s, wire.RobotUpdate{Robot: 5, Loc: geom.Pt(10, 0)}); relay {
		t.Fatal("non-manager update must not relay")
	}
	if id, _ := s.Target(); id != 0 {
		t.Fatal("non-manager update must not set target")
	}
	if relay := p.Consider(s, wire.RobotUpdate{Robot: 77, Loc: geom.Pt(100, 100)}); !relay {
		t.Fatal("manager announcement must relay")
	}
	if id, loc := s.Target(); id != 77 || !loc.Eq(geom.Pt(100, 100)) {
		t.Fatalf("target = %v %v, want manager", id, loc)
	}
	if !p.GuardianOK(geom.Pt(0, 0), geom.Pt(999, 999)) {
		t.Fatal("centralized imposes no guardian restriction")
	}
}

func TestFixedPolicySubareaScoping(t *testing.T) {
	bounds := geom.Square(geom.Pt(0, 0), 400)
	part, err := geom.NewPartition(geom.PartitionSquare, bounds, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Robot 10 owns the subarea containing (100,100) — find its index.
	home := map[radio.NodeID]int{10: part.OwnerOf(geom.Pt(100, 100))}
	p := FixedPolicy{Partition: part, Home: home}

	g := newCoreRig()
	inArea := g.sensor(1, geom.Pt(50, 50), p)
	outArea := g.sensor(2, geom.Pt(300, 300), p)
	g.sched.Run(2)

	up := wire.RobotUpdate{Robot: 10, Loc: geom.Pt(100, 100), Seq: 2}
	if !p.Consider(inArea, up) {
		t.Fatal("sensor in robot's subarea must relay")
	}
	if id, _ := inArea.Target(); id != 10 {
		t.Fatal("subarea sensor must adopt its robot")
	}
	if p.Consider(outArea, up) {
		t.Fatal("sensor outside subarea must not relay")
	}
	if id, _ := outArea.Target(); id != 0 {
		t.Fatal("outside sensor must not adopt")
	}
	// Unknown robot: never relayed.
	if p.Consider(inArea, wire.RobotUpdate{Robot: 99, Loc: geom.Pt(100, 100)}) {
		t.Fatal("unknown robot relayed")
	}
}

func TestFixedPolicyGuardianSameSubarea(t *testing.T) {
	bounds := geom.Square(geom.Pt(0, 0), 400)
	part, _ := geom.NewPartition(geom.PartitionSquare, bounds, 4)
	p := FixedPolicy{Partition: part, Home: map[radio.NodeID]int{}}
	if !p.GuardianOK(geom.Pt(50, 50), geom.Pt(150, 150)) {
		t.Fatal("same-subarea pair rejected")
	}
	if p.GuardianOK(geom.Pt(50, 50), geom.Pt(250, 50)) {
		t.Fatal("cross-subarea pair accepted")
	}
}

func TestDynamicPolicyAdoptClosest(t *testing.T) {
	g := newCoreRig()
	p := DynamicPolicy{}
	s := g.sensor(1, geom.Pt(0, 0), p)
	g.sched.Run(2)

	// First robot heard is adopted and relayed.
	s.HandleFrame(robotUpdateFrame(10, geom.Pt(100, 0), 2))
	if id, _ := s.Target(); id != 10 {
		t.Fatalf("target = %v, want 10", id)
	}
	// A closer robot takes over.
	s.HandleFrame(robotUpdateFrame(11, geom.Pt(50, 0), 2))
	if id, _ := s.Target(); id != 11 {
		t.Fatalf("target = %v, want 11 (closer)", id)
	}
	// A farther robot does not.
	s.HandleFrame(robotUpdateFrame(12, geom.Pt(200, 0), 2))
	if id, _ := s.Target(); id != 11 {
		t.Fatalf("target = %v, want 11 still", id)
	}
}

func TestDynamicPolicyRelayRules(t *testing.T) {
	g := newCoreRig()
	p := DynamicPolicy{}
	s := g.sensor(1, geom.Pt(0, 0), p)
	g.sched.Run(2)
	// Seed knowledge directly through the policy.
	s.HandleFrame(robotUpdateFrame(10, geom.Pt(50, 0), 2))

	// Adoption: relays.
	if !p.Consider(s, wire.RobotUpdate{Robot: 10, Loc: geom.Pt(50, 0), Seq: 3}) {
		t.Fatal("update of current myrobot must relay")
	}
	// Unrelated far robot: no relay. (Must be heard first so the sensor
	// can compare distances; HandleFrame records then Consider decides.)
	s.HandleFrame(robotUpdateFrame(11, geom.Pt(300, 0), 2))
	if id, _ := s.Target(); id != 10 {
		t.Fatal("far robot should not be adopted")
	}
	if p.Consider(s, wire.RobotUpdate{Robot: 11, Loc: geom.Pt(300, 0), Seq: 3}) {
		t.Fatal("far robot update must not relay")
	}
	// Abandonment: my robot moves far away while another is closer — the
	// sensor switches target but still relays this update (it is in the
	// robot's old cell).
	s.HandleFrame(robotUpdateFrame(11, geom.Pt(40, 0), 3)) // 11 now closer? 40 < 50 yes
	if id, _ := s.Target(); id != 11 {
		t.Fatalf("should have switched to 11, got %v", id)
	}
	// Now 10 (the previous target of an earlier adoption) moves: since 10
	// is neither current target nor previous in this Consider call, check
	// the abandonment path explicitly: make 10 current again, then move it
	// far while 11 is closer.
	s.SetTarget(10, geom.Pt(50, 0))
	relay := p.Consider(s, wire.RobotUpdate{Robot: 10, Loc: geom.Pt(500, 0), Seq: 4})
	if !relay {
		t.Fatal("abandoning sensors must relay the departing robot's update")
	}
	if id, _ := s.Target(); id != 11 {
		t.Fatalf("target after abandonment = %v, want 11", id)
	}
}

func TestDynamicPolicyNoRobotsKnown(t *testing.T) {
	g := newCoreRig()
	p := DynamicPolicy{}
	s := g.sensor(1, geom.Pt(0, 0), p)
	g.sched.Run(2)
	if p.Consider(s, wire.RobotUpdate{Robot: 10, Loc: geom.Pt(10, 0)}) {
		// Consider is only called after noteRobot in production; calling it
		// cold must still be safe.
		t.Log("cold Consider relayed — acceptable only if a robot is known")
		if _, _, ok := s.ClosestKnownRobot(); !ok {
			t.Fatal("relayed with no robots known")
		}
	}
}

func TestUpdateCategorySplitsInitFromUpdates(t *testing.T) {
	if updateCategory(1) != metrics.CatInit {
		t.Fatal("seq 1 should be init traffic")
	}
	if updateCategory(2) != metrics.CatLocUpdate {
		t.Fatal("seq 2 should be location-update traffic")
	}
}

func TestFloodUpdatePublish(t *testing.T) {
	g := newCoreRig()
	s := g.sensor(1, geom.Pt(10, 0), DynamicPolicy{})
	r := robot.New(50, geom.Pt(0, 0), robot.Config{
		Speed: 1, Range: 250, UpdateThreshold: 20,
	}, FloodUpdate{}, g.medium, robot.Hooks{})
	r.Start(0)
	g.sched.Run(2)
	// Initial publish (seq 1): sensor hears it, learns the robot, adopts.
	if id, _ := s.Target(); id != 50 {
		t.Fatalf("sensor target = %v, want 50", id)
	}
	if g.reg.Tx(metrics.CatInit) == 0 {
		t.Fatal("initial flood not counted as init")
	}
	// Seq 1 flood is relayed by the adopting sensor under init category.
	if g.reg.Tx(metrics.CatLocUpdate) != 0 {
		t.Fatal("no location-update traffic expected yet")
	}
}

func TestCentralizedUpdatePublish(t *testing.T) {
	g := newCoreRig()
	mgr := NewManager(77, geom.Pt(100, 0), 250, g.medium, ManagerHooks{})
	mgr.Start(0)
	s := g.sensor(1, geom.Pt(10, 0), CentralizedPolicy{ManagerID: 77})
	r := robot.New(50, geom.Pt(0, 0), robot.Config{
		Speed: 1, Range: 250, UpdateThreshold: 20,
	}, CentralizedUpdate{ManagerID: 77, ManagerLoc: geom.Pt(100, 0)}, g.medium, robot.Hooks{})
	r.Start(0)
	g.sched.Run(2)
	// The robot's announce reached the sensor (one-hop) and the manager
	// (unicast): sensor knows the robot, manager tracks it.
	if id, _, ok := s.ClosestKnownRobot(); !ok || id != 50 {
		t.Fatal("sensor missed the robot's one-hop announce")
	}
	if _, ok := mgr.robots[50]; !ok {
		t.Fatal("manager did not track the robot registration")
	}
	// Sensor's target must be the manager (set by the manager's own init
	// flood), not the robot.
	if id, _ := s.Target(); id != 77 {
		t.Fatalf("sensor target = %v, want manager 77", id)
	}
}

func TestManagerDispatchClosestRobot(t *testing.T) {
	g := newCoreRig()
	var issuedTo radio.NodeID
	mgr := NewManager(77, geom.Pt(200, 200), 250, g.medium, ManagerHooks{
		OnRequestIssued: func(_ wire.RepairRequest, to radio.NodeID) { issuedTo = to },
	})
	mgr.Start(0)
	mkRobot := func(id radio.NodeID, pos geom.Point) *robot.Robot {
		r := robot.New(id, pos, robot.Config{Speed: 1, Range: 250, UpdateThreshold: 20},
			CentralizedUpdate{ManagerID: 77, ManagerLoc: geom.Pt(200, 200)}, g.medium, robot.Hooks{})
		r.Start(0)
		return r
	}
	far := mkRobot(50, geom.Pt(390, 390))
	near := mkRobot(51, geom.Pt(60, 60))
	g.sched.Run(2)

	rep := wire.FailureReport{Failed: 5, Loc: geom.Pt(50, 50), Reporter: 1}
	mgr.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 77, DstLoc: mgr.Pos(), Category: metrics.CatFailureReport, Payload: rep,
	}})
	g.sched.Run(3)
	if issuedTo != 51 {
		t.Fatalf("dispatched to %v, want nearest robot 51", issuedTo)
	}
	if !near.Busy() {
		t.Fatal("nearest robot did not receive the repair request")
	}
	if far.Busy() {
		t.Fatal("far robot was dispatched")
	}
}

func TestManagerUndispatchableWithoutRobots(t *testing.T) {
	g := newCoreRig()
	var undis int
	mgr := NewManager(77, geom.Pt(0, 0), 250, g.medium, ManagerHooks{
		OnUndispatchable: func(wire.FailureReport) { undis++ },
	})
	mgr.Start(0)
	g.sched.Run(1)
	mgr.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 77, Payload: wire.FailureReport{Failed: 5, Loc: geom.Pt(5, 5)},
	}})
	if undis != 1 {
		t.Fatalf("undispatchable hook fired %d times, want 1", undis)
	}
}

func TestManagerInitFloodSetsAllTargets(t *testing.T) {
	g := newCoreRig()
	p := CentralizedPolicy{ManagerID: 77}
	// Chain of sensors so the flood must be relayed to reach the far end.
	sensors := make([]*node.Sensor, 6)
	for i := range sensors {
		sensors[i] = g.sensor(radio.NodeID(i+1), geom.Pt(float64(i)*50, 0), p)
	}
	mgr := NewManager(77, geom.Pt(0, 0), 250, g.medium, ManagerHooks{})
	mgr.Start(1.5)
	g.sched.Run(3)
	for i, s := range sensors {
		if id, _ := s.Target(); id != 77 {
			t.Fatalf("sensor %d target = %v, want 77", i, id)
		}
	}
}

func TestManagerTracksRobotUpdatePackets(t *testing.T) {
	g := newCoreRig()
	mgr := NewManager(77, geom.Pt(0, 0), 250, g.medium, ManagerHooks{})
	mgr.Start(0)
	g.sched.Run(1)
	mgr.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 77, Payload: wire.RobotUpdate{Robot: 50, Loc: geom.Pt(30, 40), Seq: 7},
	}})
	if info, ok := mgr.robots[50]; !ok || !info.loc.Eq(geom.Pt(30, 40)) {
		t.Fatalf("robot location not tracked: %v %v", info, ok)
	}
}

func TestAlgorithmJSONRoundTrip(t *testing.T) {
	for _, alg := range []Algorithm{Centralized, Fixed, Dynamic} {
		data, err := json.Marshal(alg)
		if err != nil {
			t.Fatal(err)
		}
		want := `"` + alg.String() + `"`
		if string(data) != want {
			t.Fatalf("marshal = %s, want %s", data, want)
		}
		var back Algorithm
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != alg {
			t.Fatalf("round trip %v → %v", alg, back)
		}
	}
	// Unknown names unmarshal as plain strings — validation happens at
	// scenario.New / algorithm.Parse, not in the decoder — but they must
	// not silently resolve to a known algorithm.
	var bad Algorithm
	if err := json.Unmarshal([]byte(`"nope"`), &bad); err != nil {
		t.Fatal(err)
	}
	if bad == Centralized || bad == Fixed || bad == Dynamic {
		t.Fatalf("unknown name decoded as %v", bad)
	}
	if err := json.Unmarshal([]byte(`42`), &bad); err == nil {
		t.Fatal("non-string accepted")
	}
}

func TestDispatchPolicyNames(t *testing.T) {
	if DispatchClosest.String() != "closest" || DispatchShortestETA.String() != "shortest-eta" {
		t.Fatal("dispatch policy names wrong")
	}
}

func TestManagerETADispatchPrefersIdleRobot(t *testing.T) {
	g := newCoreRig()
	var issuedTo radio.NodeID
	mgr := NewManager(77, geom.Pt(200, 200), 250, g.medium, ManagerHooks{
		OnRequestIssued: func(_ wire.RepairRequest, to radio.NodeID) { issuedTo = to },
	})
	mgr.SetDispatchPolicy(DispatchShortestETA)
	mgr.Start(0)
	g.sched.Run(1)
	// Robot 50 is nearer the failure but buried under work; robot 51 is
	// a bit farther and idle.
	mgr.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 77, Payload: wire.RobotUpdate{Robot: 50, Loc: geom.Pt(90, 100), Seq: 2, Load: 5},
	}})
	mgr.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 77, Payload: wire.RobotUpdate{Robot: 51, Loc: geom.Pt(150, 100), Seq: 2, Load: 0},
	}})
	mgr.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 77, Payload: wire.FailureReport{Failed: 5, Loc: geom.Pt(100, 100)},
	}})
	if issuedTo != 51 {
		t.Fatalf("ETA dispatch chose %v, want the idle robot 51", issuedTo)
	}
	// Under the paper's closest rule, the same state picks robot 50.
	var closestTo radio.NodeID
	mgr2 := NewManager(78, geom.Pt(200, 200), 250, g.medium, ManagerHooks{
		OnRequestIssued: func(_ wire.RepairRequest, to radio.NodeID) { closestTo = to },
	})
	mgr2.Start(0)
	g.sched.Run(2)
	mgr2.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 78, Payload: wire.RobotUpdate{Robot: 50, Loc: geom.Pt(90, 100), Seq: 2, Load: 5},
	}})
	mgr2.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 78, Payload: wire.RobotUpdate{Robot: 51, Loc: geom.Pt(150, 100), Seq: 2, Load: 0},
	}})
	mgr2.HandleFrame(radio.Frame{Payload: netstack.Packet{
		Dst: 78, Payload: wire.FailureReport{Failed: 6, Loc: geom.Pt(100, 100)},
	}})
	if closestTo != 50 {
		t.Fatalf("closest dispatch chose %v, want nearest robot 50", closestTo)
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
