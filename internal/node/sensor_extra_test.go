package node

import (
	"testing"
	"unsafe"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/wire"
)

// efficientConfig enables the §4.3.2 relay-set optimization.
func efficientConfig() Config {
	cfg := testConfig()
	cfg.EfficientBroadcast = true
	return cfg
}

func (h *harness) addSensorCfg(id radio.NodeID, pos geom.Point, cfg Config, policy Policy) *Sensor {
	s := NewSensor(id, pos, &Env{Config: cfg, Policy: policy, Hooks: &Hooks{}, Medium: h.medium})
	h.sensors = append(h.sensors, s)
	s.Start(0.1, 1, false)
	return s
}

func TestEfficientBroadcastDesignatesRelays(t *testing.T) {
	h := newHarness()
	// A dense cluster: blind flooding would make every sensor relay; with
	// efficient broadcast each relay designates ≤6 forwarders, so relays
	// carry non-nil relay sets.
	for i := 0; i < 12; i++ {
		h.addSensorCfg(radio.NodeID(i+1), geom.Pt(float64(i%4)*20, float64(i/4)*20), efficientConfig(), allowAll{})
	}
	h.sched.Run(2)
	var sawDesignated bool
	probe := &sink{id: 99, pos: geom.Pt(30, 20), rng: 250}
	h.medium.Attach(probe)
	h.sensors[0].HandleFrame(radio.Frame{Payload: netstack.FloodMsg{
		Origin: 90, Seq: 2, Category: metrics.CatLocUpdate,
		Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(0, 0), Seq: 2}, TTL: 32,
	}})
	for _, f := range probe.frames {
		if m, ok := f.Payload.(netstack.FloodMsg); ok && m.Relays != nil {
			sawDesignated = true
			if len(m.Relays) > 6 {
				t.Fatalf("relay set too large: %v", m.Relays)
			}
		}
	}
	if !sawDesignated {
		t.Fatal("no relayed flood carried a designated relay set")
	}
}

func TestEfficientBroadcastReducesRelays(t *testing.T) {
	run := func(cfg Config) uint64 {
		h := newHarness()
		// 5×5 dense grid, 25 m pitch: well within one another's range.
		id := radio.NodeID(1)
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				h.addSensorCfg(id, geom.Pt(float64(x)*25, float64(y)*25), cfg, allowAll{})
				id++
			}
		}
		h.sched.Run(2)
		before := h.reg.Tx(metrics.CatLocUpdate)
		h.sensors[0].HandleFrame(radio.Frame{Payload: netstack.FloodMsg{
			Origin: 90, Seq: 2, Category: metrics.CatLocUpdate,
			Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(0, 0), Seq: 2}, TTL: 32,
		}})
		return h.reg.Tx(metrics.CatLocUpdate) - before
	}
	blind := run(testConfig())
	efficient := run(efficientConfig())
	if efficient >= blind {
		t.Fatalf("efficient broadcast used %d relays, blind %d", efficient, blind)
	}
	if efficient == 0 {
		t.Fatal("efficient broadcast relayed nothing")
	}
}

func TestEfficientBroadcastPreservesReach(t *testing.T) {
	// A chain with branches: the designated relays must still deliver the
	// update to the far end of the network.
	h := newHarness()
	var last *Sensor
	for i := 0; i < 8; i++ {
		last = h.addSensorCfg(radio.NodeID(i+1), geom.Pt(float64(i)*40, 0), efficientConfig(), allowAll{})
	}
	h.sched.Run(2)
	h.sensors[0].HandleFrame(radio.Frame{Payload: netstack.FloodMsg{
		Origin: 90, Seq: 2, Category: metrics.CatLocUpdate,
		Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(0, 0), Seq: 2}, TTL: 32,
	}})
	if _, ok := last.KnowsRobot(90); !ok {
		t.Fatal("efficient broadcast failed to reach the chain's end")
	}
}

func TestNonDesignatedSensorDoesNotRelay(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	h.addSensor(2, geom.Pt(30, 0), allowAll{}, Hooks{})
	h.sched.Run(2)
	before := h.reg.Tx(metrics.CatLocUpdate)
	// Relay set names only sensor 2: sensor 1 must stay silent.
	s.HandleFrame(radio.Frame{Payload: netstack.FloodMsg{
		Origin: 90, Seq: 2, Category: metrics.CatLocUpdate,
		Payload: wire.RobotUpdate{Robot: 90, Loc: geom.Pt(0, 0), Seq: 2},
		TTL:     32,
		Relays:  []radio.NodeID{2},
	}})
	if got := h.reg.Tx(metrics.CatLocUpdate) - before; got != 0 {
		t.Fatalf("non-designated sensor relayed (%d tx)", got)
	}
	// But it still learns the robot's location (receive ≠ relay).
	if _, ok := s.KnowsRobot(90); !ok {
		t.Fatal("non-designated sensor dropped the payload")
	}
}

// twoRobotDynamic mimics the dynamic policy: adopt the closest known
// robot, relay on adopt or abandon.
type twoRobotDynamic struct{}

func (twoRobotDynamic) Consider(s *Sensor, up wire.RobotUpdate) bool {
	prev, _ := s.Target()
	best, bestLoc, ok := s.ClosestKnownRobot()
	if !ok {
		return false
	}
	s.SetTarget(best, bestLoc)
	return best == up.Robot || prev == up.Robot
}
func (twoRobotDynamic) GuardianOK(_, _ geom.Point) bool { return true }

func TestDynamicTargetSwitchesAsRobotsMove(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), twoRobotDynamic{}, Hooks{})
	h.sched.Run(2)
	flood := func(robot radio.NodeID, loc geom.Point, seq uint64) {
		s.HandleFrame(radio.Frame{Payload: netstack.FloodMsg{
			Origin: robot, Seq: seq, Category: metrics.CatLocUpdate,
			Payload: wire.RobotUpdate{Robot: robot, Loc: loc, Seq: seq}, TTL: 32,
		}})
	}
	flood(90, geom.Pt(100, 0), 1)
	if id, _ := s.Target(); id != 90 {
		t.Fatalf("target = %v, want 90", id)
	}
	flood(91, geom.Pt(60, 0), 1)
	if id, _ := s.Target(); id != 91 {
		t.Fatalf("target = %v, want 91 after closer robot", id)
	}
	// Robot 91 wanders away; on its next update the sensor switches back
	// to 90 (stale-known at 100 m but now closest).
	flood(91, geom.Pt(300, 0), 2)
	if id, _ := s.Target(); id != 90 {
		t.Fatalf("target = %v, want 90 after 91 left", id)
	}
}

// sensorSink keeps the sensors built by TestNewSensorAllocatesOnlyItself
// reachable, so the compiler cannot stack-allocate a discarded result.
var sensorSink *Sensor

// TestNewSensorAllocatesOnlyItself pins a sensor's construction footprint:
// with reliability off or on, NewSensor makes one allocation, the Sensor
// itself. The Env is shared, the table is held inline, and the beacon box,
// table storage and pending reports are made on first use.
func TestNewSensorAllocatesOnlyItself(t *testing.T) {
	h := newHarness()
	plain := &Env{Config: testConfig(), Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium}
	reliable := &Env{Config: testConfig(), Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium}
	reliable.Reliability = Reliability{RetryBase: 5, RobotExpiry: 100, NeighborWatch: true, WatchGrace: 10}
	for name, env := range map[string]*Env{"paper": plain, "reliable": reliable} {
		id := radio.NodeID(1)
		allocs := testing.AllocsPerRun(100, func() {
			sensorSink = NewSensor(id, geom.Pt(10, 10), env)
			id++
		})
		if allocs != 1 {
			t.Fatalf("%s: NewSensor: %v allocs, want 1", name, allocs)
		}
	}
}

// TestSensorSizeClass pins the Sensor struct to the runtime's 256 B size
// class: a field holds one Sensor per deployed node.
func TestSensorSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Sensor{}); got > 256 {
		t.Fatalf("Sensor is %d B, want <= 256", got)
	}
}

// TestRouterBoxesNothing pins that building a sensor's router per packet
// and reading its next hops allocate nothing: the sensor is its own
// NeighborSource, so the router's Source is a pointer, never a boxed
// adapter.
func TestRouterBoxesNothing(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	h.addSensor(2, geom.Pt(30, 0), allowAll{}, Hooks{})
	h.sched.Run(12)
	seen := 0
	if a := testing.AllocsPerRun(100, func() {
		r := s.router()
		seen += r.Source.RoutingNeighbors().Len()
	}); a != 0 {
		t.Fatalf("router and its neighbor view: %v allocs, want 0", a)
	}
	if seen == 0 {
		t.Fatal("the router saw no neighbors")
	}
}

// TestBeaconBoxedOnce pins that a sensor boxes its beacon once: two
// ticks send the identical payload value, the sensor's own beacon.
func TestBeaconBoxedOnce(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(3, 4), allowAll{}, Hooks{})
	probe := &sink{id: 99, pos: geom.Pt(10, 4), rng: 63}
	h.medium.Attach(probe)
	h.sched.Run(12) // ticks at 1 and 11
	var beacons []any
	for _, f := range probe.frames {
		if f.Category == metrics.CatBeacon && f.Src == s.ID() {
			beacons = append(beacons, f.Payload)
		}
	}
	if len(beacons) != 2 {
		t.Fatalf("probe heard %d beacons, want 2", len(beacons))
	}
	want := wire.Beacon{From: 1, Loc: geom.Pt(3, 4)}
	if beacons[0] != any(want) || beacons[1] != any(want) {
		t.Fatalf("beacons %v, want %v twice", beacons, want)
	}
	if dataWord(beacons[0]) != dataWord(beacons[1]) {
		t.Fatal("the two ticks boxed separate beacons")
	}
	h.medium.Detach(probe.id) // the probe's own recording allocates
	if allocs := testing.AllocsPerRun(10, s.tick); allocs != 0 {
		t.Fatalf("a quiet tick allocates %v times, want 0", allocs)
	}
}

// dataWord returns the data pointer of an interface value: two values
// boxed separately have different data pointers.
func dataWord(v any) unsafe.Pointer { return (*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1] }
