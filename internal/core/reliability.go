package core

import (
	"sort"

	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// ManagerReliability holds the central manager's knobs of the reliability
// extension. The zero value reproduces the paper's model exactly: no acks,
// no robot liveness tracking, no re-dispatch.
type ManagerReliability struct {
	// HeartbeatPeriod > 0 enables the protocol: the manager acknowledges
	// robot location updates and failure reports, tracks per-robot
	// liveness, and re-dispatches repair requests that a dead or silent
	// robot never acknowledged.
	HeartbeatPeriod sim.Duration
	// MissedHeartbeats is how many silent periods declare a robot dead
	// (3 when unset).
	MissedHeartbeats int
	// DispatchAckTimeout is the initial re-dispatch timeout for an
	// unacknowledged repair request (doubled per attempt, capped at 8x).
	DispatchAckTimeout sim.Duration
}

// Enabled reports whether the manager-side reliability protocol is on.
func (rl ManagerReliability) Enabled() bool { return rl.HeartbeatPeriod > 0 }

// deadAfter is the silence that declares a robot dead.
func (rl ManagerReliability) deadAfter() sim.Duration {
	n := rl.MissedHeartbeats
	if n <= 0 {
		n = 3
	}
	return rl.HeartbeatPeriod * sim.Duration(n)
}

// mgrDispatch is a repair request the manager has issued and not yet seen
// completed.
type mgrDispatch struct {
	req      wire.RepairRequest
	robot    radio.NodeID
	lastSent sim.Time
	attempts int
	acked    bool
}

// SetReliability enables the manager-side reliability protocol; call it
// before Start.
func (m *Manager) SetReliability(rl ManagerReliability) {
	m.rel = rl
	if rl.Enabled() {
		m.lastHeard = make(map[radio.NodeID]sim.Time)
		m.seen = make(map[radio.NodeID]bool)
		m.outstanding = make(map[radio.NodeID]*mgrDispatch)
	}
}

// FailNow crashes the manager (resilience extension): it falls silent and
// stops dispatching. The paper's model never calls this.
func (m *Manager) FailNow() {
	if m.failed {
		return
	}
	m.failed = true
	m.medium.SetActive(m.id, false)
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// Alive reports whether the manager is operational.
func (m *Manager) Alive() bool { return !m.failed }

// heardFlood lets the manager notice a robot's standing manager claim: it
// was silenced long enough (e.g. by a regional blackout) for the fleet to
// declare it dead and elect a replacement, so it stands down rather than
// run a split-brain dispatch against the new manager.
func (m *Manager) heardFlood(fl netstack.FloodMsg) {
	if !m.rel.Enabled() {
		return
	}
	switch pl := fl.Payload.(type) {
	case wire.ManagerTakeover:
		if pl.Manager != m.id {
			m.depose()
		}
	case wire.RobotUpdate:
		if pl.Managing && pl.Robot != m.id {
			m.depose()
		}
	}
}

// depose permanently silences a superseded manager.
func (m *Manager) depose() {
	if m.deposed {
		return
	}
	m.deposed = true
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// noteRobot refreshes a robot's liveness timestamp.
func (m *Manager) noteRobot(id radio.NodeID) {
	if m.lastHeard != nil {
		m.lastHeard[id] = m.medium.Scheduler().Now()
	}
}

// ackHeartbeat acknowledges a robot's location update so the robot can
// detect a manager crash by silence.
func (m *Manager) ackHeartbeat(up wire.RobotUpdate) {
	m.router.Originate(netstack.Packet{
		Dst:      up.Robot,
		DstLoc:   up.Loc,
		Category: metrics.CatAck,
		Payload:  wire.HeartbeatAck{Manager: m.id, Seq: up.Seq},
	})
}

// ackReport routes an ack back to a reporting guardian so it stops
// retransmitting. Reports without a sequence number expect no ack.
func (m *Manager) ackReport(rep wire.FailureReport) {
	if rep.Seq == 0 || rep.Reporter == 0 {
		return
	}
	m.router.Originate(netstack.Packet{
		Dst:      rep.Reporter,
		DstLoc:   rep.ReporterLoc,
		Category: metrics.CatAck,
		Payload:  wire.ReportAck{Reporter: rep.Reporter, Failed: rep.Failed, Seq: rep.Seq},
	})
}

// robotStale reports whether a robot has been silent past the liveness
// deadline (only meaningful with reliability enabled).
func (m *Manager) robotStale(id radio.NodeID, now sim.Time) bool {
	if m.lastHeard == nil {
		return false
	}
	heard, ok := m.lastHeard[id]
	return !ok || heard < now.Sub(m.rel.deadAfter())
}

// relTick re-dispatches outstanding requests whose robot died or never
// acknowledged, with per-request exponential backoff.
func (m *Manager) relTick() {
	if m.failed || m.deposed || len(m.outstanding) == 0 {
		return
	}
	now := m.medium.Scheduler().Now()
	ids := make([]radio.NodeID, 0, len(m.outstanding))
	for id := range m.outstanding {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, failed := range ids {
		o := m.outstanding[failed]
		timeout := m.rel.DispatchAckTimeout * sim.Duration(uint64(1)<<uint(min(max(o.attempts-1, 0), 3)))
		if m.robotStale(o.robot, now) || (!o.acked && now.Sub(o.lastSent) >= timeout) {
			m.redispatch(o, now)
		}
	}
}

// redispatch re-issues an outstanding request to the closest live robot.
func (m *Manager) redispatch(o *mgrDispatch, now sim.Time) {
	best, ok := m.selectRobot(o.req.Loc, now)
	if !ok {
		return // no live robot known; keep the request outstanding
	}
	o.attempts++
	o.robot = best
	o.lastSent = now
	o.acked = false
	if m.hooks.OnRedispatch != nil {
		m.hooks.OnRedispatch(o.req, best, o.attempts)
	}
	m.router.Originate(netstack.Packet{
		Dst:      best,
		DstLoc:   m.robots[best].loc,
		Category: metrics.CatRepairRequest,
		Payload:  o.req,
	})
}
