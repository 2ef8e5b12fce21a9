package robot

import (
	"sort"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// defaultTakeoverTTL bounds manager-takeover and managing-heartbeat floods
// when Reliability.FloodTTL is unset (matches the core flood TTL).
const defaultTakeoverTTL = 32

// Reliability holds the robot-side knobs of the reliability extension.
// The zero value reproduces the paper's model exactly: no heartbeats, no
// acks, no failover.
type Reliability struct {
	// HeartbeatPeriod > 0 enables the protocol: the robot publishes its
	// location every period even when idle (the heartbeat other parties
	// use to detect its death), acks reports and requests, and de-
	// duplicates repair tasks by failed-node ID.
	HeartbeatPeriod sim.Duration
	// MissedHeartbeats is how many silent periods declare a peer (or the
	// manager) dead.
	MissedHeartbeats int
	// DispatchAckTimeout is the managing role's initial re-dispatch
	// timeout for unacknowledged repair requests (doubled per attempt,
	// capped at 8x).
	DispatchAckTimeout sim.Duration
	// Manager is the central manager to ack heartbeats with and to watch
	// for death (0 under the distributed algorithms).
	Manager radio.NodeID
	// ManagerLoc is the manager's location, for routing acks to it.
	ManagerLoc geom.Point
	// TakeoverRank staggers takeover attempts after a manager death:
	// rank r waits r half-heartbeat-periods before assuming the role, so
	// the lowest surviving rank wins without an election protocol.
	TakeoverRank int
	// FloodTTL bounds takeover and managing-heartbeat floods (0 selects
	// the default of 32).
	FloodTTL int
}

// Enabled reports whether the reliability protocol is on.
func (rl Reliability) Enabled() bool { return rl.HeartbeatPeriod > 0 }

func (rl Reliability) floodTTL() int {
	if rl.FloodTTL > 0 {
		return rl.FloodTTL
	}
	return defaultTakeoverTTL
}

// deadAfter is the silence that declares a peer or manager dead.
func (rl Reliability) deadAfter() sim.Duration {
	n := rl.MissedHeartbeats
	if n <= 0 {
		n = 3
	}
	return rl.HeartbeatPeriod * sim.Duration(n)
}

// peerState is what a managing robot knows about another robot.
type peerState struct {
	loc   geom.Point
	heard sim.Time
	load  int
	seq   uint64
}

// outDispatch is a repair request the managing robot has issued and not
// yet seen completed.
type outDispatch struct {
	req      wire.RepairRequest
	robot    radio.NodeID
	lastSent sim.Time
	attempts int
	acked    bool
}

// Managing reports whether this robot has assumed the manager role.
func (r *Robot) Managing() bool { return r.managing }

// ManagerTarget returns the robot's current manager override for location
// updates: the takeover-elected manager, or the configured one. ok is
// false when the reliability protocol is off or no manager is known.
func (r *Robot) ManagerTarget() (radio.NodeID, geom.Point, bool) {
	if !r.cfg.Reliability.Enabled() || r.mgrID == 0 {
		return 0, geom.Point{}, false
	}
	return r.mgrID, r.mgrLoc, true
}

// relTick is the heartbeat: publish the current location (even when idle),
// then run the role-specific liveness checks.
func (r *Robot) relTick() {
	if r.failed {
		return
	}
	if r.moving {
		r.reindex()
	}
	r.publish()
	if r.managing {
		r.managerTick()
		return
	}
	if r.mgrID != 0 && !r.takeoverArmed {
		if r.lastMgrAck < r.sched.Now().Sub(r.cfg.Reliability.deadAfter()) {
			r.suspectManager()
		}
	}
}

// suspectManager reacts to a silent manager: stop updating the corpse and
// arm a rank-staggered takeover attempt.
func (r *Robot) suspectManager() {
	rel := r.cfg.Reliability
	r.takeoverArmed = true
	r.mgrID = 0
	delay := sim.Duration(rel.TakeoverRank) * (rel.HeartbeatPeriod / 2)
	r.takeoverEv = r.sched.After(delay, r.attemptTakeover)
}

// attemptTakeover assumes the manager role unless another robot's takeover
// was heard during the stagger delay.
func (r *Robot) attemptTakeover() {
	if r.failed || r.managing || !r.takeoverArmed || r.mgrID != 0 {
		return
	}
	r.takeoverArmed = false
	r.managing = true
	r.mgrID = r.id
	r.mgrLoc = r.Pos()
	if r.hooks.OnTakeover != nil {
		r.hooks.OnTakeover(r)
	}
	r.seq++
	r.medium.Send(radio.Frame{
		Src:      r.id,
		Dst:      radio.IDBroadcast,
		Category: metrics.CatTakeover,
		Payload: netstack.FloodMsg{
			Origin:   r.id,
			Seq:      r.seq,
			Category: metrics.CatTakeover,
			Payload:  wire.ManagerTakeover{Manager: r.id, Loc: r.Pos()},
			TTL:      r.cfg.Reliability.floodTTL(),
		},
	})
	r.publish() // flooded heartbeat: sensors learn the new manager's route
}

// heardTakeover processes another robot's ManagerTakeover flood.
func (r *Robot) heardTakeover(t wire.ManagerTakeover) {
	if t.Manager == r.id {
		return
	}
	if r.managing {
		// Concurrent takeovers (possible under latency): lowest ID keeps
		// the role, the other abdicates and re-registers as a worker.
		if t.Manager > r.id {
			return
		}
		r.managing = false
		// Hand the dispatch book over implicitly: un-see everything we
		// dispatched to others so the new manager can assign it to us, and
		// let reporter retransmission re-surface it there. Our own queued
		// tasks stay seen and get served.
		for failed := range r.outstanding {
			delete(r.seen, failed)
			delete(r.outstanding, failed)
		}
	}
	r.sched.Cancel(r.takeoverEv)
	r.takeoverArmed = false
	r.mgrID = t.Manager
	r.mgrLoc = t.Loc
	r.lastMgrAck = r.sched.Now()
	r.publish() // register with the new manager immediately
}

// notePeer records another robot's location update for the managing role.
func (r *Robot) notePeer(up wire.RobotUpdate) {
	if up.Robot == r.id {
		return
	}
	if p, ok := r.peers[up.Robot]; r.cfg.StrictSeq && ok && up.Seq < p.seq {
		// Hostile channel: a replayed update would roll the peer's position
		// back. Equal Seq is an idempotent duplicate and passes.
		r.replayRejected++
		return
	}
	r.peers[up.Robot] = peerState{loc: up.Loc, heard: r.sched.Now(), load: up.Load, seq: up.Seq}
}

// handleFloodRel processes floods a reliability-enabled robot overhears.
func (r *Robot) handleFloodRel(m netstack.FloodMsg) {
	switch pl := m.Payload.(type) {
	case wire.ManagerTakeover:
		r.heardTakeover(pl)
	case wire.RobotUpdate:
		r.notePeer(pl)
		switch {
		case pl.Managing && pl.Robot != r.id && (r.managing || r.takeoverArmed || r.mgrID != pl.Robot):
			// A standing manager claim that is news to us: adopt it (or,
			// when we also hold the role, settle the conflict by ID).
			r.heardTakeover(wire.ManagerTakeover{Manager: pl.Robot, Loc: pl.Loc})
		case !r.managing && pl.Robot == r.mgrID:
			// A flooded heartbeat from the manager is liveness proof in
			// itself, and tracks it when mobile (post-takeover).
			r.mgrLoc = pl.Loc
			r.lastMgrAck = r.sched.Now()
		}
	}
}

// ackReport routes an ack back to a reporting guardian so it stops
// retransmitting. Reports without a sequence number expect no ack.
func (r *Robot) ackReport(rep wire.FailureReport) {
	if rep.Seq == 0 || rep.Reporter == 0 {
		return
	}
	r.router.Originate(netstack.Packet{
		Dst:      rep.Reporter,
		DstLoc:   rep.ReporterLoc,
		Category: metrics.CatAck,
		Payload:  wire.ReportAck{Reporter: rep.Reporter, Failed: rep.Failed, Seq: rep.Seq},
	})
}

// ackDispatch confirms a repair request back to its dispatcher. The
// request names its issuer so the ack reaches the actual requester even
// when this robot tracks a different manager (failover transient).
func (r *Robot) ackDispatch(req wire.RepairRequest) {
	dst, loc := req.Manager, req.ManagerLoc
	if dst == 0 {
		dst, loc = r.mgrID, r.mgrLoc
	}
	if dst == 0 || dst == r.id {
		return
	}
	r.router.Originate(netstack.Packet{
		Dst:      dst,
		DstLoc:   loc,
		Category: metrics.CatAck,
		Payload:  wire.DispatchAck{Robot: r.id, Failed: req.Failed},
	})
}

// dropQueuedAt cancels queued repair tasks for a site the robot just heard
// alive (a beacon or boot announce from exactly the task's location): the
// visit would be a duplicate trip. The in-progress task is not aborted —
// the world-level dedup absorbs its arrival — and the seen entry is
// cleared so a later genuine failure of that node is accepted again. A
// managing robot also retires outstanding dispatches for the site.
func (r *Robot) dropQueuedAt(loc geom.Point) {
	const eps2 = 1e-6 // sensors are stationary; locations match exactly
	if len(r.queue) > 0 {
		kept := r.queue[:0]
		for _, t := range r.queue {
			if t.Loc.Dist2(loc) <= eps2 {
				delete(r.seen, t.Failed)
				continue
			}
			kept = append(kept, t)
		}
		r.queue = kept
	}
	for failed, o := range r.outstanding {
		if o.req.Loc.Dist2(loc) <= eps2 {
			delete(r.outstanding, failed)
			delete(r.seen, failed)
		}
	}
}

// reportDone tells the dispatcher a repair completed.
func (r *Robot) reportDone(failed radio.NodeID) {
	if r.mgrID == 0 || r.mgrID == r.id {
		return
	}
	r.router.Originate(netstack.Packet{
		Dst:      r.mgrID,
		DstLoc:   r.mgrLoc,
		Category: metrics.CatAck,
		Payload:  wire.RepairDone{Robot: r.id, Failed: failed},
	})
}

// dispatchAsManager is the managing robot's dispatcher: deduplicate the
// report, pick the closest live robot (itself included), and either
// enqueue locally or issue a tracked repair request.
func (r *Robot) dispatchAsManager(rep wire.FailureReport) {
	if r.seen[rep.Failed] {
		return
	}
	r.seen[rep.Failed] = true
	now := r.sched.Now()
	target := r.closestLivePeer(rep.Loc, now)
	if target == r.id {
		r.enqueueTask(Task{Failed: rep.Failed, Loc: rep.Loc, EnqueuedAt: now})
		return
	}
	req := wire.RepairRequest{
		Failed: rep.Failed, Loc: rep.Loc, IssuedAt: now,
		Manager: r.id, ManagerLoc: r.Pos(),
	}
	r.outstanding[rep.Failed] = &outDispatch{req: req, robot: target, lastSent: now, attempts: 1}
	r.router.Originate(netstack.Packet{
		Dst:      target,
		DstLoc:   r.peers[target].loc,
		Category: metrics.CatRepairRequest,
		Payload:  req,
	})
}

// closestLivePeer returns the live robot closest to loc, the managing
// robot itself included; ties break toward the lowest ID.
func (r *Robot) closestLivePeer(loc geom.Point, now sim.Time) radio.NodeID {
	deadline := now.Sub(r.cfg.Reliability.deadAfter())
	best := r.id
	bestD := r.Pos().Dist2(loc)
	ids := make([]radio.NodeID, 0, len(r.peers))
	for id := range r.peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := r.peers[id]
		if p.heard < deadline {
			continue
		}
		d := p.loc.Dist2(loc)
		if d < bestD || (d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	return best
}

// managerTick re-dispatches outstanding requests whose robot died or
// never acknowledged, with per-request exponential backoff.
func (r *Robot) managerTick() {
	now := r.sched.Now()
	rel := r.cfg.Reliability
	deadline := now.Sub(rel.deadAfter())
	ids := make([]radio.NodeID, 0, len(r.outstanding))
	for id := range r.outstanding {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, failed := range ids {
		o := r.outstanding[failed]
		dead := false
		if p, ok := r.peers[o.robot]; !ok || p.heard < deadline {
			dead = true
		}
		timeout := rel.DispatchAckTimeout * sim.Duration(uint64(1)<<uint(min(max(o.attempts-1, 0), 3)))
		if dead || (!o.acked && now.Sub(o.lastSent) >= timeout) {
			r.redispatch(failed, o, now)
		}
	}
}

// redispatch re-issues an outstanding request to the closest live robot.
func (r *Robot) redispatch(failed radio.NodeID, o *outDispatch, now sim.Time) {
	target := r.closestLivePeer(o.req.Loc, now)
	o.attempts++
	if r.hooks.OnRedispatch != nil {
		r.hooks.OnRedispatch(o.req, target, o.attempts)
	}
	if target == r.id {
		delete(r.outstanding, failed)
		r.enqueueTask(Task{Failed: o.req.Failed, Loc: o.req.Loc, EnqueuedAt: now})
		return
	}
	o.robot = target
	o.lastSent = now
	o.acked = false
	o.req.Manager, o.req.ManagerLoc = r.id, r.Pos()
	r.router.Originate(netstack.Packet{
		Dst:      target,
		DstLoc:   r.peers[target].loc,
		Category: metrics.CatRepairRequest,
		Payload:  o.req,
	})
}
