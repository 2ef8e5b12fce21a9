package netstack

import (
	"slices"
	"testing"
	"testing/quick"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

// testNode is a routable station for router tests: it knows every other
// node within its own range (tables pre-populated, as after init).
type testNode struct {
	id     radio.NodeID
	pos    geom.Point
	rng    float64
	dead   bool
	router *Router
	table  *NeighborTable
	// statics binds the table to the node's static set.
	statics Statics

	delivered []Packet
	drops     []DropReason
	// onDeliver, when set, runs after a packet is delivered here.
	onDeliver func(Packet)
}

func (n *testNode) RadioID() radio.NodeID { return n.id }
func (n *testNode) RadioPos() geom.Point  { return n.pos }
func (n *testNode) RadioRange() float64   { return n.rng }
func (n *testNode) RadioActive() bool     { return !n.dead }
func (n *testNode) HandleFrame(f radio.Frame) {
	if p, ok := f.Payload.(Packet); ok {
		n.router.Receive(p)
	}
}
func (n *testNode) DeliverPacket(p Packet) {
	n.delivered = append(n.delivered, p)
	if n.onDeliver != nil {
		n.onDeliver(p)
	}
}
func (n *testNode) DropPacket(_ Packet, r DropReason) { n.drops = append(n.drops, r) }

var (
	_ radio.Station = (*testNode)(nil)
	_ Host          = (*testNode)(nil)
)

// TableSource adapts a beacon-built NeighborTable as a NeighborSource, as
// a sensor is its own (node.Sensor.RoutingNeighbors): a read-only view of
// the table, no copy.
type TableSource struct {
	Table   *NeighborTable
	Statics Statics
}

func (s TableSource) RoutingNeighbors() NeighborView { return s.Table.View(s.Statics) }

// testNet wires nodes, medium, and routers together.
type testNet struct {
	medium *radio.Medium
	sched  *sim.Scheduler
	reg    *metrics.Registry
	nodes  map[radio.NodeID]*testNode
}

func newTestNet() *testNet {
	sched := sim.NewScheduler()
	reg := metrics.NewRegistry()
	return &testNet{
		medium: mustMedium(sched, reg, radio.Config{}),
		sched:  sched,
		reg:    reg,
		nodes:  make(map[radio.NodeID]*testNode),
	}
}

func (tn *testNet) add(id radio.NodeID, pos geom.Point, r float64) *testNode {
	n := &testNode{id: id, pos: pos, rng: r, table: &NeighborTable{}, statics: Statics{Medium: tn.medium, Owner: id}}
	n.router = &Router{
		ID:     id,
		Host:   n,
		Medium: tn.medium,
		Source: TableSource{Table: n.table, Statics: n.statics},
	}
	tn.nodes[id] = n
	tn.medium.Attach(n)
	return n
}

// fillTables populates every node's table with all others inside its own
// range, the state beacons would build.
func (tn *testNet) fillTables() {
	for _, a := range tn.nodes {
		for _, b := range tn.nodes {
			if a.id == b.id || b.dead {
				continue
			}
			if a.pos.Dist(b.pos) <= a.rng {
				a.table.Upsert(a.statics, b.id, b.pos, 0)
			}
		}
	}
}

func TestGreedyChainDelivery(t *testing.T) {
	tn := newTestNet()
	// Five nodes 50 m apart, range 63 m: a strict chain.
	for i := 0; i < 5; i++ {
		tn.add(radio.NodeID(i+1), geom.Pt(float64(i)*50, 0), 63)
	}
	tn.fillTables()
	src, dst := tn.nodes[1], tn.nodes[5]
	src.router.Originate(Packet{Dst: dst.id, DstLoc: dst.pos, Category: "t"})
	if len(dst.delivered) != 1 {
		t.Fatalf("delivered %d packets", len(dst.delivered))
	}
	// 200 m at ≤63 m hops with 50 m spacing: node1→3→5 is reachable? 1→3 is
	// 100 m > 63, so hops follow the chain: exactly 4.
	if got := dst.delivered[0].Hops; got != 4 {
		t.Fatalf("hops = %d, want 4", got)
	}
	if tn.reg.Tx("t") != 4 {
		t.Fatalf("transmissions = %d, want 4", tn.reg.Tx("t"))
	}
}

func TestDirectNeighborDelivery(t *testing.T) {
	tn := newTestNet()
	a := tn.add(1, geom.Pt(0, 0), 63)
	b := tn.add(2, geom.Pt(40, 0), 63)
	tn.fillTables()
	a.router.Originate(Packet{Dst: 2, DstLoc: b.pos, Category: "t"})
	if len(b.delivered) != 1 || b.delivered[0].Hops != 1 {
		t.Fatalf("direct delivery failed: %v", b.delivered)
	}
}

func TestSelfAddressedPacketDeliversLocally(t *testing.T) {
	tn := newTestNet()
	a := tn.add(1, geom.Pt(0, 0), 63)
	a.router.Originate(Packet{Dst: 1, DstLoc: a.pos, Category: "t"})
	if len(a.delivered) != 1 || a.delivered[0].Hops != 0 {
		t.Fatalf("self delivery failed: %v", a.delivered)
	}
	if tn.reg.Tx("t") != 0 {
		t.Fatal("self delivery should not transmit")
	}
}

func TestTTLExhaustionDrops(t *testing.T) {
	tn := newTestNet()
	for i := 0; i < 5; i++ {
		tn.add(radio.NodeID(i+1), geom.Pt(float64(i)*50, 0), 63)
	}
	tn.fillTables()
	src, dst := tn.nodes[1], tn.nodes[5]
	src.router.Originate(Packet{Dst: dst.id, DstLoc: dst.pos, Category: "t", TTL: 2})
	if len(dst.delivered) != 0 {
		t.Fatal("packet with TTL 2 should not cross 4 hops")
	}
	dropped := false
	for _, n := range tn.nodes {
		for _, r := range n.drops {
			if r == DropTTL {
				dropped = true
			}
		}
	}
	if !dropped {
		t.Fatal("no DropTTL recorded")
	}
}

func TestIsolatedSourceDropsStuck(t *testing.T) {
	tn := newTestNet()
	a := tn.add(1, geom.Pt(0, 0), 63)
	tn.add(2, geom.Pt(500, 0), 63)
	tn.fillTables()
	a.router.Originate(Packet{Dst: 2, DstLoc: geom.Pt(500, 0), Category: "t"})
	if len(a.drops) != 1 || a.drops[0] != DropStuck {
		t.Fatalf("drops = %v, want [stuck]", a.drops)
	}
}

func TestPerimeterRecoveryAroundHole(t *testing.T) {
	tn := newTestNet()
	// A "C"-shaped barrier of nodes: greedy from the left tip toward the
	// destination dead-ends at the concave gap and must walk the face.
	coords := []geom.Point{
		{X: 0, Y: 0},    // 1 source
		{X: 50, Y: 0},   // 2 greedy dead end (no node between x=50..150 on y=0)
		{X: 40, Y: 45},  // 3 upper detour
		{X: 80, Y: 70},  // 4
		{X: 130, Y: 60}, // 5
		{X: 160, Y: 20}, // 6
		{X: 180, Y: 0},  // 7 destination
	}
	for i, c := range coords {
		tn.add(radio.NodeID(i+1), c, 63)
	}
	tn.fillTables()
	src, dst := tn.nodes[1], tn.nodes[7]
	src.router.Originate(Packet{Dst: dst.id, DstLoc: dst.pos, Category: "t"})
	if len(dst.delivered) != 1 {
		t.Fatalf("perimeter mode failed to deliver; drops: %v", collectDrops(tn))
	}
	if dst.delivered[0].Hops < 4 {
		t.Fatalf("suspiciously few hops %d for a detour", dst.delivered[0].Hops)
	}
}

func collectDrops(tn *testNet) []DropReason {
	var out []DropReason
	for _, n := range tn.nodes {
		out = append(out, n.drops...)
	}
	return out
}

func TestLastResortDirectTransmission(t *testing.T) {
	tn := newTestNet()
	// Sensor 1 believes the robot (id 9) is at (40,0) — within range — but
	// the robot has moved to (55,0). No table entry exists for it. Greedy
	// finds no closer neighbor, so the router transmits at the advertised
	// location and the medium delivers because the robot is still in range.
	a := tn.add(1, geom.Pt(0, 0), 63)
	robot := tn.add(9, geom.Pt(55, 0), 250)
	// Note: tables NOT filled — a does not know the robot as a neighbor.
	a.router.Originate(Packet{Dst: 9, DstLoc: geom.Pt(40, 0), Category: "t"})
	if len(robot.delivered) != 1 {
		t.Fatal("last-resort direct transmission failed")
	}
	// And if the robot is actually out of range, the frame is simply lost.
	tn2 := newTestNet()
	b := tn2.add(1, geom.Pt(0, 0), 63)
	robot2 := tn2.add(9, geom.Pt(80, 0), 250)
	b.router.Originate(Packet{Dst: 9, DstLoc: geom.Pt(40, 0), Category: "t"})
	if len(robot2.delivered) != 0 {
		t.Fatal("out-of-range direct transmission delivered")
	}
}

func TestMediumSourceSeesInRangeStations(t *testing.T) {
	tn := newTestNet()
	m := tn.add(1, geom.Pt(0, 0), 250)
	tn.add(2, geom.Pt(100, 0), 63)
	tn.add(3, geom.Pt(300, 0), 63)
	src := MediumSource{Medium: tn.medium, Self: 1, Host: m}
	ns := src.RoutingNeighbors()
	it := ns.Iter()
	if n, _ := it.Next(); ns.Len() != 1 || n.ID != 2 {
		t.Fatalf("MediumSource neighbors = %v", ns)
	}
}

func TestManagerLongFirstHop(t *testing.T) {
	// A manager with 250 m range and a MediumSource should cross 200 m in
	// one hop where a sensor chain would need several — the Fig 3 effect.
	tn := newTestNet()
	mgr := tn.add(1, geom.Pt(0, 0), 250)
	mgr.router.Source = &MediumSource{Medium: tn.medium, Self: 1, Host: mgr}
	for i := 0; i < 5; i++ {
		tn.add(radio.NodeID(i+2), geom.Pt(50+float64(i)*50, 0), 63)
	}
	tn.fillTables()
	dst := tn.nodes[6] // at x=250
	mgr.router.Originate(Packet{Dst: dst.id, DstLoc: dst.pos, Category: "t"})
	if len(dst.delivered) != 1 {
		t.Fatal("manager packet not delivered")
	}
	if got := dst.delivered[0].Hops; got != 1 {
		t.Fatalf("hops = %d, want 1 (250 m reach)", got)
	}
}

func TestDeadRelayIsSkipped(t *testing.T) {
	tn := newTestNet()
	for i := 0; i < 5; i++ {
		tn.add(radio.NodeID(i+1), geom.Pt(float64(i)*50, 0), 63)
	}
	tn.fillTables()
	// Kill node 3 but leave it in tables (stale entry): the unicast to it
	// is lost; packet is not delivered. Then remove it from tables and
	// confirm routing succeeds via perimeter/greedy detour — impossible on
	// a pure chain, so add a detour node.
	tn.add(9, geom.Pt(100, 30), 63)
	tn.fillTables()
	tn.nodes[3].dead = true
	tn.medium.SetActive(3, false)
	src, dst := tn.nodes[1], tn.nodes[5]
	src.router.Originate(Packet{Dst: dst.id, DstLoc: dst.pos, Category: "t"})
	if len(dst.delivered) != 0 {
		t.Fatal("frame to dead relay should be lost (stale table)")
	}
	for _, n := range tn.nodes {
		n.table.Remove(n.statics, 3)
	}
	src.router.Originate(Packet{Dst: dst.id, DstLoc: dst.pos, Category: "t"})
	if len(dst.delivered) != 1 {
		t.Fatalf("detour routing failed; drops: %v", collectDrops(tn))
	}
}

// Property: on random dense deployments (the paper's regime), geographic
// routing delivers from any node to any node with high reliability.
func TestPropertyDenseDeploymentDelivery(t *testing.T) {
	trials, delivered := 0, 0
	prop := func(seed int64) bool {
		r := rng.New(seed)
		tn := newTestNet()
		// 50 sensors in 200x200 — the paper's density.
		for i := 0; i < 50; i++ {
			tn.add(radio.NodeID(i+1), geom.Pt(r.Uniform(0, 200), r.Uniform(0, 200)), 63)
		}
		tn.fillTables()
		a := radio.NodeID(r.Intn(50) + 1)
		b := radio.NodeID(r.Intn(50) + 1)
		trials++
		tn.nodes[a].router.Originate(Packet{
			Dst: b, DstLoc: tn.nodes[b].pos, Category: "t",
		})
		if len(tn.nodes[b].delivered) == 1 {
			delivered++
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	ratio := float64(delivered) / float64(trials)
	if ratio < 0.97 {
		t.Fatalf("delivery ratio %.3f below 0.97 (%d/%d)", ratio, delivered, trials)
	}
}

// Property: hop count is at least the straight-line distance divided by the
// transmission range (no teleporting).
func TestPropertyHopsLowerBound(t *testing.T) {
	prop := func(seed int64) bool {
		r := rng.New(seed)
		tn := newTestNet()
		for i := 0; i < 60; i++ {
			tn.add(radio.NodeID(i+1), geom.Pt(r.Uniform(0, 250), r.Uniform(0, 250)), 63)
		}
		tn.fillTables()
		a := radio.NodeID(r.Intn(60) + 1)
		b := radio.NodeID(r.Intn(60) + 1)
		if a == b {
			return true
		}
		tn.nodes[a].router.Originate(Packet{Dst: b, DstLoc: tn.nodes[b].pos, Category: "t"})
		if len(tn.nodes[b].delivered) == 0 {
			return true // undelivered is covered by the other property
		}
		minHops := tn.nodes[a].pos.Dist(tn.nodes[b].pos) / 63
		return float64(tn.nodes[b].delivered[0].Hops) >= minHops-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
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

// TestRoutingLeavesTableUnchanged routes a packet between every ordered
// pair of a seeded field, through greedy hops and perimeter detours, with
// every router reading its table through a TableSource view. The router
// must only read the view: every table ends holding exactly the entries,
// in the order, it started with.
func TestRoutingLeavesTableUnchanged(t *testing.T) {
	tn := newTestNet()
	r := rng.New(7)
	const n = 40
	for i := 1; i <= n; i++ {
		tn.add(radio.NodeID(i), geom.Pt(r.Uniform(0, 300), r.Uniform(0, 300)), 63)
	}
	tn.fillTables()
	before := make(map[radio.NodeID][]Neighbor, n)
	for id, node := range tn.nodes {
		before[id] = slices.Clone(node.table.AppendAll(node.statics, nil))
	}
	delivered := 0
	for a := radio.NodeID(1); a <= n; a++ {
		for b := radio.NodeID(1); b <= n; b++ {
			if a == b {
				continue
			}
			dst := tn.nodes[b]
			got := len(dst.delivered)
			tn.nodes[a].router.Originate(Packet{Dst: b, DstLoc: dst.pos, Category: "t"})
			delivered += len(dst.delivered) - got
		}
	}
	for id, node := range tn.nodes {
		if !slices.Equal(node.table.AppendAll(node.statics, nil), before[id]) {
			t.Fatalf("n%d's table changed by routing:\n got %v\nwant %v", id, node.table.AppendAll(node.statics, nil), before[id])
		}
	}
	if delivered == 0 {
		t.Fatal("no packet delivered")
	}
}

// TestMediumSourcesShareScratchReentrantly routes through two robots whose
// MediumSources share their medium's range-query scratch. Robot 1's packet
// goes 1 → 2 → n18; its synchronous delivery at n18 makes robot 1
// originate a second packet, whose route through robot 2 queries the
// scratch again while both robots' first hops are still on the stack.
// Both routes must be the ones private query buffers give.
func TestMediumSourcesShareScratchReentrantly(t *testing.T) {
	tn := newTestNet()
	for i := 0; i <= 12; i++ {
		tn.add(radio.NodeID(10+i), geom.Pt(float64(i)*50, 0), 63)
	}
	a := tn.add(1, geom.Pt(0, 10), 250)
	b := tn.add(2, geom.Pt(240, 0), 250)
	tn.fillTables()
	for _, r := range []*testNode{a, b} {
		r.router.Source = &MediumSource{Medium: tn.medium, Self: r.id, Host: r}
		r.router.RecordPaths = true
	}
	near, far := tn.nodes[18], tn.nodes[22]
	near.onDeliver = func(Packet) {
		a.router.Originate(Packet{Dst: far.id, DstLoc: far.pos, Category: "t"})
	}
	a.router.Originate(Packet{Dst: near.id, DstLoc: near.pos, Category: "t"})

	if len(near.delivered) != 1 || len(far.delivered) != 1 {
		t.Fatalf("delivered %d and %d packets, want 1 each", len(near.delivered), len(far.delivered))
	}
	if got, want := near.delivered[0].Path, []radio.NodeID{1, 2, 18}; !slices.Equal(got, want) {
		t.Errorf("first route %v, want %v", got, want)
	}
	if got, want := far.delivered[0].Path, []radio.NodeID{1, 2, 19, 20, 21, 22}; !slices.Equal(got, want) {
		t.Errorf("second route %v, want %v", got, want)
	}
}
