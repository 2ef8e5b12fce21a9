package node

import (
	"cmp"
	"slices"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// Reliability holds the sensor-side knobs of the reliability extension.
// The zero value reproduces the paper's fire-and-forget model exactly:
// reports are sent once, robots never expire, orphans stay orphaned.
type Reliability struct {
	// RetryBase > 0 enables report retransmission: an unacknowledged
	// report is re-sent after RetryBase, then with exponentially growing
	// delays capped at RetryMax, until an ack arrives or the repair is
	// observed (a replacement boots at the failure location).
	RetryBase sim.Duration
	// RetryMax caps the backoff delay (0 leaves it uncapped).
	RetryMax sim.Duration
	// RetryLimit caps the total transmissions of one report, initial send
	// included. 0 retries forever (until acked or repaired).
	RetryLimit int
	// RobotExpiry > 0 drops robots not heard for that long from the
	// sensor's robot table, so reports re-target a surviving robot
	// instead of chasing a dead one.
	RobotExpiry sim.Duration
	// Manager is exempt from expiry: the centralized manager is
	// stationary and silent, not dead. Takeover floods update it.
	Manager radio.NodeID
	// OrphanAdopt lets a sensor with no report target adopt the closest
	// known robot even when its policy declines (the fixed algorithm's
	// cross-subarea fallback after its own robot dies).
	OrphanAdopt bool
	// NeighborWatch makes every sensor report any silent neighbor, not
	// just its guardees — the guardian scheme's blind spot is a guardian
	// dying inside its guardee's detection window, which would otherwise
	// strand the guardee's failure forever. Duplicate reports are
	// deduplicated at the dispatcher.
	NeighborWatch bool
	// WatchGrace delays a neighbor-watch report's first transmission.
	// In the common case the failed node's guardian triggers the repair
	// within the grace, the replacement's boot announce cancels the
	// watcher's pending report, and no duplicate traffic is sent; only
	// when no repair happens (the blind spot) do watchers speak up.
	WatchGrace sim.Duration
}

// RetryEnabled reports whether report retransmission is on.
func (r Reliability) RetryEnabled() bool { return r.RetryBase > 0 }

// pendingReport is a failure report awaiting acknowledgement.
type pendingReport struct {
	rep      wire.FailureReport
	attempts int          // transmissions so far
	acked    bool         // a dispatcher owns the repair; verify cadence
	target   radio.NodeID // destination of the last transmission
	ev       sim.Event
	// fire is the retransmission timer body, bound once per report so
	// that (re-)arming the timer allocates nothing.
	fire func()
}

// newPending appends a report to the pending list (Seqs only grow, so the
// list stays sorted) and binds its retransmission callback.
func (s *Sensor) newPending(rep wire.FailureReport) *pendingReport {
	p := &pendingReport{rep: rep}
	p.fire = func() { s.resend(p.rep.Seq) }
	s.pending = append(s.pending, p)
	return p
}

// retryDelay returns the backoff before the next retransmission given the
// number of transmissions so far: RetryBase doubled per attempt, capped at
// RetryMax.
func (s *Sensor) retryDelay(attempts int) sim.Duration {
	rel := s.env.Reliability
	d := rel.RetryBase
	for i := 1; i < attempts; i++ {
		d *= 2
		if rel.RetryMax > 0 && d >= rel.RetryMax {
			break
		}
	}
	if rel.RetryMax > 0 && d > rel.RetryMax {
		d = rel.RetryMax
	}
	return d
}

// verifyDelay is the slow retransmission cadence for reports a dispatcher
// has already acknowledged. The ack stops the fast retry, but only seeing
// the site alive again (a replacement's announce, or any beacon from that
// location) finally clears the report — so dispatcher state lost to a
// crash or failover cannot strand a failure.
func (s *Sensor) verifyDelay() sim.Duration {
	rel := s.env.Reliability
	if rel.RetryMax > 0 {
		return 4 * rel.RetryMax
	}
	return 8 * rel.RetryBase
}

// reportTarget picks the destination for a failure report. With a central
// manager all reports go there. Otherwise the reporter picks the known
// robot closest to the FAILURE SITE, not to itself: every reporter of the
// same failure (guardian and watchers alike) then converges on the same
// robot, whose per-failure dedup suppresses the duplicates — reporters
// picking their own closest robot would send each duplicate to a
// different robot and trigger a duplicate trip.
func (s *Sensor) reportTarget(loc geom.Point) (radio.NodeID, geom.Point) {
	if s.manager != 0 {
		return s.target, s.targetLoc
	}
	var bestID radio.NodeID
	var bestLoc geom.Point
	bestD := -1.0
	for i := range s.robots {
		tr := &s.robots[i]
		if !tr.known {
			continue
		}
		d := loc.Dist2(tr.loc)
		if bestD < 0 || d < bestD {
			// ID-ascending walk: strict improvement keeps the lowest ID
			// on ties.
			bestID, bestLoc, bestD = radio.NodeID(tr.id), tr.loc, d
		}
	}
	if bestD < 0 {
		return s.target, s.targetLoc
	}
	return bestID, bestLoc
}

// sendReport transmits a pending report (first send or retransmission)
// toward the current target and schedules the next retransmission. With no
// known target the transmission is skipped but the retry stays armed, so
// an orphaned sensor reports as soon as it adopts a robot.
func (s *Sensor) sendReport(p *pendingReport) {
	target, targetLoc := s.reportTarget(p.rep.Loc)
	if p.acked && p.target != 0 {
		// Sticky verify target: an acked report keeps probing the robot
		// that accepted it — re-running site affinity here would fan slow
		// retransmissions across robots as their tables evolve and trigger
		// duplicate trips. Re-pick only once that robot expires.
		if tr := s.robotAt(p.target); tr != nil {
			target, targetLoc = p.target, tr.loc
		}
	}
	if target != 0 {
		cat := metrics.CatFailureReport
		if p.attempts == 0 {
			if s.env.Hooks.OnReportSent != nil {
				s.env.Hooks.OnReportSent(p.rep)
			}
		} else {
			cat = metrics.CatReportRetx
			if s.env.Hooks.OnReportRetx != nil {
				s.env.Hooks.OnReportRetx(p.rep, p.attempts)
			}
		}
		p.attempts++
		p.target = target
		r := s.router()
		r.Originate(netstack.Packet{
			Dst:      target,
			DstLoc:   targetLoc,
			Category: cat,
			Payload:  p.rep,
		})
	}
	delay := s.retryDelay(p.attempts)
	if p.acked {
		delay = s.verifyDelay()
	}
	p.ev = s.sched().After(delay, p.fire)
}

// pendingAt returns the index of the pending report numbered seq, by
// binary search of the Seq-ascending list, or -1.
func (s *Sensor) pendingAt(seq uint64) int {
	i, ok := slices.BinarySearchFunc(s.pending, seq, func(p *pendingReport, seq uint64) int {
		return cmp.Compare(p.rep.Seq, seq)
	})
	if !ok {
		return -1
	}
	return i
}

// resend is the retransmission timer body.
func (s *Sensor) resend(seq uint64) {
	i := s.pendingAt(seq)
	if i < 0 || !s.alive {
		return
	}
	p := s.pending[i]
	rel := s.env.Reliability
	if rel.RetryLimit > 0 && p.attempts >= rel.RetryLimit {
		s.pending = slices.Delete(s.pending, i, i+1)
		if s.env.Hooks.OnReportAbandoned != nil {
			s.env.Hooks.OnReportAbandoned(p.rep)
		}
		return
	}
	s.sendReport(p)
}

// ackReport slows a pending report to the verify cadence: the dispatcher
// owns the repair now, but the reporter keeps a lazy eye on it until the
// site is seen alive (observeRepair), in case the dispatcher's state dies
// with it.
func (s *Sensor) ackReport(seq uint64) {
	i := s.pendingAt(seq)
	if i < 0 {
		return
	}
	p := s.pending[i]
	p.acked = true
	sched := s.sched()
	sched.Cancel(p.ev)
	p.ev = sched.After(s.verifyDelay(), p.fire)
}

// resyncPendings re-arms every unacked pending report with a fresh
// confirmation grace. Called when the sensor resurfaces from deafness
// (no frames at all for a full detection window): neighbors it accused
// while cut off were probably silenced by the same blackout, and their
// first post-blackout beacon clears the false pending via observeRepair
// before it escapes. Genuinely dead neighbors stay silent through the
// grace and are reported as usual.
func (s *Sensor) resyncPendings() {
	grace := 2 * s.env.BeaconPeriod
	sched := s.sched()
	for _, p := range s.pending {
		if p.acked {
			continue
		}
		sched.Cancel(p.ev)
		p.ev = sched.After(grace, p.fire)
	}
}

// PendingReports reports how many failure reports await acknowledgement.
func (s *Sensor) PendingReports() int { return len(s.pending) }

// reportAfter arms a failure report whose first transmission waits for
// grace; an observed repair in the meantime cancels it silently. Requires
// retransmission to be enabled (neighbor watch implies it).
func (s *Sensor) reportAfter(failed radio.NodeID, loc geom.Point, now sim.Time, grace sim.Duration) {
	if grace <= 0 {
		s.report(failed, loc, now)
		return
	}
	s.reportSeq++
	rep := wire.FailureReport{
		Failed: failed, Loc: loc, Reporter: s.id, DetectedAt: now,
		Seq: s.reportSeq, ReporterLoc: s.pos,
	}
	p := s.newPending(rep)
	p.ev = s.sched().After(grace, p.fire)
}

// DeliverPacket implements netstack.Host: it handles routed packets
// addressed to this sensor. In the paper's model sensors are never packet
// destinations; the reliability extension routes report acks back to the
// reporting guardian.
func (s *Sensor) DeliverPacket(p netstack.Packet) {
	if !s.alive {
		return
	}
	if ack, ok := p.Payload.(wire.ReportAck); ok && ack.Reporter == s.id {
		if s.env.Hooks.OnReportAcked != nil {
			s.env.Hooks.OnReportAcked(ack)
		}
		s.ackReport(ack.Seq)
	}
}

// observeRepair cancels retransmission of reports whose failure location
// is seen alive again: a freshly booted replacement announced itself, or a
// beacon arrived from a node at that spot (a blackout false positive
// resurfacing, or an earlier replacement the announce of which was lost).
func (s *Sensor) observeRepair(loc geom.Point) {
	const eps2 = 1e-6 // replacements boot exactly at the failure location
	kept := s.pending[:0]
	for _, p := range s.pending {
		if p.rep.Loc.Dist2(loc) <= eps2 {
			s.sched().Cancel(p.ev) // cleared for good: the site was seen alive
			continue
		}
		kept = append(kept, p)
	}
	clear(s.pending[len(kept):])
	s.pending = kept
}

// expireRobots drops robots unheard for RobotExpiry. A sensor whose report
// target expired re-targets the closest surviving robot it knows.
func (s *Sensor) expireRobots(now sim.Time) {
	deadline := now.Sub(s.env.Reliability.RobotExpiry)
	for i := range s.robots {
		tr := &s.robots[i]
		id := radio.NodeID(tr.id)
		if !tr.known || id == s.manager || tr.heard >= deadline {
			continue
		}
		*tr = robotTrack{id: tr.id, floodSeq: tr.floodSeq, flooded: tr.flooded}
		s.table.Remove(s.statics(), id)
		if s.target == id {
			s.target = 0
		}
	}
	if s.target == 0 {
		if id, loc, ok := s.ClosestKnownRobot(); ok {
			s.SetTarget(id, loc)
		}
	}
}

// adoptManager retargets the sensor at a new manager announced by a
// takeover flood.
func (s *Sensor) adoptManager(t wire.ManagerTakeover, now sim.Time) {
	if !trackable(t.Manager) {
		return // defensive: no station has this ID
	}
	s.manager = t.Manager
	tr := s.robotSlot(t.Manager) // keep the accepted Seq; takeovers carry none
	tr.loc = t.Loc
	tr.heard = now
	tr.known = true
	if s.inRange(t.Loc) {
		s.upsertNeighbor(t.Manager, t.Loc, now)
	}
	s.SetTarget(t.Manager, t.Loc)
}
