// Package core implements the paper's contribution: the three robot
// coordination algorithms for sensor replacement.
//
//   - Centralized manager (§3.1): a static robot at the field center
//     receives every failure report and forwards each to the maintenance
//     robot currently closest to the failure. Robots update their location
//     to the manager by unicast and to nearby sensors by one-hop broadcast.
//
//   - Fixed distributed manager (§3.2): the field is partitioned into
//     equal subareas, one robot per subarea; each robot is both manager
//     and maintainer for its subarea. Location updates are flooded to the
//     subarea's sensors.
//
//   - Dynamic distributed manager (§3.3): subareas are implicit Voronoi
//     cells maintained by message passing — each sensor tracks the closest
//     robot it has heard of ("myrobot") and relays a robot's location
//     update if it adopts (or previously held) that robot, so the relay
//     region approximates the union of the robot's old and new cells.
//
// The package provides the sensor-side policies (node.Policy), the
// robot-side update dissemination modes (robot.UpdateMode), and the
// central manager station.
package core

import (
	"sort"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/node"
	"roborepair/internal/radio"
	"roborepair/internal/robot"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// Algorithm names a coordination algorithm. It is a string key so the
// algorithm registry (internal/algorithm) can be extended without touching
// this package; its JSON form is the bare name, byte-identical to the
// figure-style encoding the former enum marshaled to, so config hashes and
// checkpoints round-trip unchanged across the registry refactor.
type Algorithm string

const (
	// Centralized is the central-manager algorithm of §3.1.
	Centralized Algorithm = "centralized"
	// Fixed is the fixed distributed manager algorithm of §3.2.
	Fixed Algorithm = "fixed"
	// Dynamic is the dynamic distributed manager algorithm of §3.3.
	Dynamic Algorithm = "dynamic"
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string { return string(a) }

// FloodTTL is the safety bound on location-update flood relaying; the
// relay predicate, not the TTL, is the intended scope limit.
const FloodTTL = 32

// updateCategory assigns a robot's very first announcement (sequence 1) to
// initialization traffic; all later updates are location-update traffic,
// the quantity of Figure 4.
func updateCategory(seq uint64) string {
	if seq <= 1 {
		return metrics.CatInit
	}
	return metrics.CatLocUpdate
}

// ---------------------------------------------------------------------
// Centralized manager algorithm
// ---------------------------------------------------------------------

// CentralizedPolicy is the sensor policy under the centralized algorithm:
// every sensor reports to the static central manager, and the only flood a
// sensor relays is the manager's initial network-wide announcement.
type CentralizedPolicy struct {
	ManagerID radio.NodeID
}

// Consider implements node.Policy.
func (p CentralizedPolicy) Consider(s *node.Sensor, up wire.RobotUpdate) bool {
	if up.Robot != p.ManagerID {
		return false // maintenance robots announce one-hop only
	}
	s.SetTarget(up.Robot, up.Loc)
	return true
}

// GuardianOK implements node.Policy: no restriction.
func (p CentralizedPolicy) GuardianOK(_, _ geom.Point) bool { return true }

var _ node.Policy = CentralizedPolicy{}

// CentralizedUpdate is the robot-side update mode under the centralized
// algorithm: a geographically routed unicast to the manager plus a one-hop
// broadcast to neighbor sensors (§3.1).
type CentralizedUpdate struct {
	ManagerID  radio.NodeID
	ManagerLoc geom.Point
}

// Publish implements robot.UpdateMode.
func (u CentralizedUpdate) Publish(r *robot.Robot, up wire.RobotUpdate) {
	cat := updateCategory(up.Seq)
	// One-hop broadcast so nearby sensors can deliver failure traffic to
	// the moving robot.
	r.Router().Medium.Send(radio.Frame{
		Src:      r.ID(),
		Dst:      radio.IDBroadcast,
		Category: cat,
		Payload:  up,
	})
	// Unicast to the manager so dispatch decisions use fresh locations.
	// After a manager failover the robot tracks its elected replacement
	// (reliability extension); otherwise the configured static manager.
	mgrID, mgrLoc := u.ManagerID, u.ManagerLoc
	if id, loc, ok := r.ManagerTarget(); ok {
		mgrID, mgrLoc = id, loc
	}
	if mgrID == r.ID() {
		return // this robot is the manager; nothing to unicast
	}
	r.Router().Originate(netstack.Packet{
		Dst:      mgrID,
		DstLoc:   mgrLoc,
		Category: cat,
		Payload:  up,
	})
}

var _ robot.UpdateMode = CentralizedUpdate{}

// DispatchPolicy selects how the central manager picks the robot for a
// failure.
type DispatchPolicy int

const (
	// DispatchClosest is the paper's rule: "the manager selects the robot
	// whose current location is the closest to the failure".
	DispatchClosest DispatchPolicy = iota
	// DispatchShortestETA is the future-work extension: the manager
	// scores each robot by distance plus its outstanding workload (from
	// the Load field of its location updates), avoiding the myopic
	// pile-up on a busy robot that happens to sit nearby.
	DispatchShortestETA
)

// String names the policy.
func (p DispatchPolicy) String() string {
	if p == DispatchShortestETA {
		return "shortest-eta"
	}
	return "closest"
}

// RobotView is the manager's exported view of one tracked maintenance
// robot, handed to pluggable dispatch selectors.
type RobotView struct {
	ID   radio.NodeID
	Loc  geom.Point
	Load int
}

// Selector is a pluggable dispatch rule consulted before the built-in
// policies: given a failure location and the live tracked robots in
// ascending ID order, it names the robot to dispatch. Returning ok=false
// (or a robot the manager does not consider live) falls back to the
// built-in policy. Registered algorithm strategies (e.g. the
// facility-location family) install one via SetSelector.
type Selector func(loc geom.Point, robots []RobotView) (radio.NodeID, bool)

// ManagerHooks observe the central manager.
type ManagerHooks struct {
	// OnReportReceived fires when a failure report reaches the manager.
	OnReportReceived func(rep wire.FailureReport, hops int)
	// OnRequestIssued fires when the manager dispatches a repair request.
	OnRequestIssued func(req wire.RepairRequest, to radio.NodeID)
	// OnUndispatchable fires when a report arrives before any robot
	// location is known.
	OnUndispatchable func(rep wire.FailureReport)
	// OnRedispatch fires when the manager re-issues an outstanding repair
	// request after a robot death or ack timeout (reliability extension).
	OnRedispatch func(req wire.RepairRequest, to radio.NodeID, attempt int)
}

// Manager is the static central manager station of §3.1. It is modeled as
// a robot that does not move, "located at the center of the area to
// balance failure reports from all directions".
type Manager struct {
	id     radio.NodeID
	pos    geom.Point
	rng    float64
	medium *radio.Medium
	router netstack.Router
	source netstack.MediumSource
	hooks  ManagerHooks
	policy DispatchPolicy

	robots   map[radio.NodeID]robotInfo
	selector Selector
	// meanDispatchDist is the running mean of dispatch distances, used as
	// the per-task service estimate by the ETA policy.
	meanDispatchDist float64
	dispatches       int
	seq              uint64

	// strictSeq rejects robot updates whose Seq is below the last accepted
	// one (hostile-channel defense against stale replays); replayRejected
	// counts the rejections.
	strictSeq      bool
	replayRejected uint64

	// Reliability-extension state (inert when rel is zero).
	rel         ManagerReliability
	failed      bool
	deposed     bool
	ticker      *sim.Ticker
	lastHeard   map[radio.NodeID]sim.Time
	seen        map[radio.NodeID]bool         // failed IDs already dispatched
	outstanding map[radio.NodeID]*mgrDispatch // issued requests by failed ID
}

// robotInfo is the manager's view of one maintenance robot.
type robotInfo struct {
	loc  geom.Point
	load int
	seq  uint64
}

var (
	_ radio.Station = (*Manager)(nil)
	_ netstack.Host = (*Manager)(nil)
)

// NewManager constructs the manager at pos (the field center) with the
// robot transmission range.
func NewManager(id radio.NodeID, pos geom.Point, txRange float64, medium *radio.Medium, hooks ManagerHooks) *Manager {
	m := &Manager{
		id:     id,
		pos:    pos,
		rng:    txRange,
		medium: medium,
		hooks:  hooks,
		robots: make(map[radio.NodeID]robotInfo),
	}
	m.source = netstack.MediumSource{Medium: medium, Self: id, Host: m}
	m.router = netstack.Router{ID: id, Host: m, Medium: medium, Source: &m.source}
	return m
}

// ID returns the manager's address.
func (m *Manager) ID() radio.NodeID { return m.id }

// Pos returns the manager's fixed location.
func (m *Manager) Pos() geom.Point { return m.pos }

// SetDispatchPolicy selects the dispatch rule (DispatchClosest default).
func (m *Manager) SetDispatchPolicy(p DispatchPolicy) { m.policy = p }

// SetSelector installs a pluggable dispatch selector consulted before the
// built-in policy (nil removes it).
func (m *Manager) SetSelector(sel Selector) { m.selector = sel }

// Router exposes the manager's geographic router so registered strategies
// can originate their own control traffic (e.g. relocation commands) from
// the manager station.
func (m *Manager) Router() *netstack.Router { return &m.router }

// Active reports whether the manager is operating: neither crashed nor
// deposed by an elected successor.
func (m *Manager) Active() bool { return !m.failed && !m.deposed }

// RobotViews returns the manager's tracked robots in ascending ID order,
// skipping robots past the liveness deadline when the reliability protocol
// is on.
func (m *Manager) RobotViews() []RobotView {
	now := m.medium.Scheduler().Now()
	out := make([]RobotView, 0, len(m.robots))
	for id, info := range m.robots {
		if m.rel.Enabled() && m.robotStale(id, now) {
			continue
		}
		out = append(out, RobotView{ID: id, Loc: info.loc, Load: info.load})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetStrictSeq toggles rejection of stale-sequence robot updates. The
// hostile-channel layer turns it on; it stays off on a benign medium,
// where multi-path relaying genuinely reorders updates.
func (m *Manager) SetStrictSeq(on bool) { m.strictSeq = on }

// ReplayRejected reports how many robot updates the strict-sequence guard
// rejected as stale.
func (m *Manager) ReplayRejected() uint64 { return m.replayRejected }

// RadioID implements radio.Station.
func (m *Manager) RadioID() radio.NodeID { return m.id }

// RadioPos implements radio.Station.
func (m *Manager) RadioPos() geom.Point { return m.pos }

// RadioRange implements radio.Station.
func (m *Manager) RadioRange() float64 { return m.rng }

// RadioActive implements radio.Station: the manager does not fail in the
// paper's model; the resilience extension can crash it via FailNow.
func (m *Manager) RadioActive() bool { return !m.failed }

// Start attaches the manager and floods its location network-wide after
// initDelay ("the manager broadcasts its location to all the sensor nodes
// and all the maintenance robots", §3.1).
func (m *Manager) Start(initDelay sim.Duration) {
	m.medium.Attach(m)
	if m.rel.Enabled() {
		t, err := m.medium.Scheduler().NewTicker(m.rel.HeartbeatPeriod, m.rel.HeartbeatPeriod, m.relTick)
		if err != nil {
			panic(err) // unreachable: Enabled() implies a positive period
		}
		m.ticker = t
	}
	m.medium.Scheduler().After(initDelay, func() {
		m.seq++
		m.medium.Send(radio.Frame{
			Src:      m.id,
			Dst:      radio.IDBroadcast,
			Category: metrics.CatInit,
			Payload: netstack.FloodMsg{
				Origin:   m.id,
				Seq:      m.seq,
				Category: metrics.CatInit,
				Payload:  wire.RobotUpdate{Robot: m.id, Loc: m.pos, Seq: m.seq},
				TTL:      FloodTTL,
			},
		})
	})
}

// TrackRobot primes the manager's location table (used when robots
// register by unicast during initialization).
func (m *Manager) TrackRobot(id radio.NodeID, loc geom.Point) {
	m.robots[id] = robotInfo{loc: loc}
	m.noteRobot(id)
}

// HandleFrame implements radio.Station.
func (m *Manager) HandleFrame(f radio.Frame) {
	if m.failed || m.deposed {
		return
	}
	switch p := f.Payload.(type) {
	case netstack.Packet:
		m.router.Receive(p)
	case netstack.FloodMsg:
		m.heardFlood(p)
	}
}

// DropPacket implements netstack.Host.
func (m *Manager) DropPacket(_ netstack.Packet, reason netstack.DropReason) {
	m.medium.Metrics().CountTx("drop_"+string(reason), 1)
}

// DeliverPacket implements netstack.Host: it processes packets addressed
// to the manager. Robot location updates refresh the dispatch table;
// failure reports are forwarded to the closest robot.
func (m *Manager) DeliverPacket(p netstack.Packet) {
	if m.failed || m.deposed {
		return
	}
	switch msg := p.Payload.(type) {
	case wire.RobotUpdate:
		if info, ok := m.robots[msg.Robot]; m.strictSeq && ok && msg.Seq < info.seq {
			// Hostile channel: a replayed update would roll the robot's
			// position back. Equal Seq is an idempotent duplicate and passes.
			m.replayRejected++
			return
		}
		m.robots[msg.Robot] = robotInfo{loc: msg.Loc, load: msg.Load, seq: msg.Seq}
		if m.rel.Enabled() {
			m.noteRobot(msg.Robot)
			m.ackHeartbeat(msg)
		}
	case wire.FailureReport:
		if m.hooks.OnReportReceived != nil {
			m.hooks.OnReportReceived(msg, p.Hops)
		}
		if m.rel.Enabled() {
			// Ack first — even a duplicate means the reporter must stop
			// retransmitting — then deduplicate by failed node.
			m.ackReport(msg)
			if m.seen[msg.Failed] {
				return
			}
			m.seen[msg.Failed] = true
		}
		m.dispatch(msg)
	case wire.DispatchAck:
		if o, ok := m.outstanding[msg.Failed]; ok && o.robot == msg.Robot {
			o.acked = true
		}
	case wire.RepairDone:
		if m.rel.Enabled() {
			delete(m.outstanding, msg.Failed)
			delete(m.seen, msg.Failed)
		}
	}
}

// selectRobot picks the robot for a failure location per the dispatch
// policy, skipping robots past the liveness deadline when the reliability
// protocol is on.
func (m *Manager) selectRobot(loc geom.Point, now sim.Time) (radio.NodeID, bool) {
	if m.selector != nil {
		if id, ok := m.selector(loc, m.RobotViews()); ok {
			if _, tracked := m.robots[id]; tracked && !(m.rel.Enabled() && m.robotStale(id, now)) {
				return id, true
			}
		}
	}
	var best radio.NodeID
	bestScore := -1.0
	for id, info := range m.robots {
		if m.rel.Enabled() && m.robotStale(id, now) {
			continue
		}
		var score float64
		switch m.policy {
		case DispatchShortestETA:
			est := m.meanDispatchDist
			if m.dispatches == 0 {
				est = 100 // the geometry’s prior (½·√(area/robot))
			}
			score = info.loc.Dist(loc) + float64(info.load)*est
		default:
			score = info.loc.Dist2(loc)
		}
		if bestScore < 0 || score < bestScore || (score == bestScore && id < best) {
			best, bestScore = id, score
		}
	}
	return best, bestScore >= 0
}

// dispatch selects the robot for a failure per the dispatch policy — by
// default "the robot whose current location is the closest to the
// failure" — and forwards a repair request to it.
func (m *Manager) dispatch(rep wire.FailureReport) {
	now := m.medium.Scheduler().Now()
	req := wire.RepairRequest{Failed: rep.Failed, Loc: rep.Loc, IssuedAt: now}
	if m.rel.Enabled() {
		req.Manager, req.ManagerLoc = m.id, m.pos
	}
	best, ok := m.selectRobot(rep.Loc, now)
	if !ok {
		if m.hooks.OnUndispatchable != nil {
			m.hooks.OnUndispatchable(rep)
		}
		if m.outstanding != nil {
			// Responsibility is already acknowledged to the reporter: keep
			// the request outstanding until a live robot appears.
			m.outstanding[rep.Failed] = &mgrDispatch{req: req, lastSent: now}
		}
		return
	}
	d := m.robots[best].loc.Dist(rep.Loc)
	m.meanDispatchDist = (m.meanDispatchDist*float64(m.dispatches) + d) / float64(m.dispatches+1)
	m.dispatches++
	if m.hooks.OnRequestIssued != nil {
		m.hooks.OnRequestIssued(req, best)
	}
	if m.outstanding != nil {
		m.outstanding[rep.Failed] = &mgrDispatch{req: req, robot: best, lastSent: now, attempts: 1}
	}
	m.router.Originate(netstack.Packet{
		Dst:      best,
		DstLoc:   m.robots[best].loc,
		Category: metrics.CatRepairRequest,
		Payload:  req,
	})
}

// ---------------------------------------------------------------------
// Fixed distributed manager algorithm
// ---------------------------------------------------------------------

// FixedPolicy is the sensor policy under the fixed algorithm: the sensor's
// myrobot is the robot assigned to its subarea, and a robot's location
// updates are relayed by exactly the sensors of that robot's subarea.
type FixedPolicy struct {
	Partition *geom.Partition
	// Home maps each robot ID to its subarea index.
	Home map[radio.NodeID]int
}

// Consider implements node.Policy.
func (p FixedPolicy) Consider(s *node.Sensor, up wire.RobotUpdate) bool {
	home, ok := p.Home[up.Robot]
	if !ok {
		return false
	}
	if p.Partition.OwnerOf(s.Pos()) != home {
		return false
	}
	s.SetTarget(up.Robot, up.Loc)
	return true
}

// GuardianOK implements node.Policy: guardian and guardee must share a
// subarea (§3.2).
func (p FixedPolicy) GuardianOK(guardee, guardian geom.Point) bool {
	return p.Partition.OwnerOf(guardee) == p.Partition.OwnerOf(guardian)
}

var _ node.Policy = FixedPolicy{}

// FloodUpdate is the robot-side update mode of both distributed
// algorithms: the robot originates a controlled flood; sensor policies
// bound its extent.
type FloodUpdate struct{}

// Publish implements robot.UpdateMode.
func (FloodUpdate) Publish(r *robot.Robot, up wire.RobotUpdate) {
	cat := updateCategory(up.Seq)
	r.Router().Medium.Send(radio.Frame{
		Src:      r.ID(),
		Dst:      radio.IDBroadcast,
		Category: cat,
		Payload: netstack.FloodMsg{
			Origin:   r.ID(),
			Seq:      up.Seq,
			Category: cat,
			Payload:  up,
			TTL:      FloodTTL,
		},
	})
}

var _ robot.UpdateMode = FloodUpdate{}

// ---------------------------------------------------------------------
// Dynamic distributed manager algorithm
// ---------------------------------------------------------------------

// DynamicPolicy is the sensor policy under the dynamic algorithm: each
// sensor keeps myrobot = the closest robot it has heard of, and relays a
// robot's update when it adopts that robot or is abandoning it — so the
// relay region approximates the union of the robot's old and new Voronoi
// cells (the shaded region of the paper's Figure 1).
type DynamicPolicy struct{}

// Consider implements node.Policy.
func (DynamicPolicy) Consider(s *node.Sensor, up wire.RobotUpdate) bool {
	prev, _ := s.Target()
	best, bestLoc, ok := s.ClosestKnownRobot()
	if !ok {
		return false
	}
	s.SetTarget(best, bestLoc)
	return best == up.Robot || prev == up.Robot
}

// GuardianOK implements node.Policy: no restriction.
func (DynamicPolicy) GuardianOK(_, _ geom.Point) bool { return true }

var _ node.Policy = DynamicPolicy{}
