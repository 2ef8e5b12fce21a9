// Package node implements sensor-node behaviour: boot-time location
// announcement, periodic beaconing, guardian/guardee failure detection,
// neighbor-table maintenance, myrobot tracking, and the relaying of robot
// location-update floods according to a per-algorithm Policy.
package node

import (
	"fmt"
	"math"
	"sort"

	"roborepair/internal/broadcastopt"
	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// Policy is the algorithm-specific part of sensor behaviour. The three
// coordination algorithms differ only in how sensors choose their failure
// report target ("myrobot"/manager) and which robot location updates they
// relay.
type Policy interface {
	// Consider processes a robot location update heard by s. It may adopt
	// the robot as s's report target and reports whether s relays the
	// flood onward.
	Consider(s *Sensor, up wire.RobotUpdate) (relay bool)
	// GuardianOK reports whether a sensor at guardee may pick a sensor at
	// guardian as its guardian (the fixed algorithm restricts the pair to
	// one subarea).
	GuardianOK(guardee, guardian geom.Point) bool
}

// Config carries the sensor parameters of the paper's setup (§4.1).
type Config struct {
	// Range is the sensor transmission range in meters (63 in the paper).
	Range float64
	// BeaconPeriod is the failure-detection heartbeat period (10 s).
	BeaconPeriod sim.Duration
	// MissedBeacons is how many silent periods declare a failure (3).
	MissedBeacons int
	// SettleDelay is how long after boot a sensor waits before selecting
	// its guardian, leaving time for location announcements to arrive.
	SettleDelay sim.Duration
	// FloodTTL caps controlled-flood relaying (safety bound; the relay
	// predicate is the real scope limit).
	FloodTTL int
	// EfficientBroadcast enables the §4.3.2 relay-set optimization: each
	// relaying sensor designates at most six angular-sector forwarders
	// instead of letting every neighbor relay.
	EfficientBroadcast bool
	// StrictSeq rejects robot updates whose Seq is below the last accepted
	// one for that robot (hostile-channel defense: stale replays must not
	// roll robot positions back). Off by default — on a benign medium
	// multi-path flood relaying genuinely reorders updates, and acting on
	// the freshest-heard value reproduces the paper's behaviour.
	StrictSeq bool
	// Reliability configures the report-retransmission extension. The
	// zero value reproduces the paper's fire-and-forget behaviour.
	Reliability Reliability
}

// Env is what every sensor of a world shares: the parameters, the
// algorithm's policy, the observation hooks and the medium. A field holds
// one Sensor per deployed node and one Env for all of them, so a sensor
// pays one pointer for these.
type Env struct {
	Config
	Policy Policy
	Hooks  *Hooks
	Medium *radio.Medium
}

// Hooks lets the experiment runner observe sensor-level events without
// coupling the node to the scenario package.
type Hooks struct {
	// OnReportSent fires when a guardian originates a failure report.
	OnReportSent func(rep wire.FailureReport)
	// OnReportRetx fires when a guardian retransmits an unacknowledged
	// report; attempt counts transmissions so far.
	OnReportRetx func(rep wire.FailureReport, attempt int)
	// OnReportAbandoned fires when a report exhausts its retry budget.
	OnReportAbandoned func(rep wire.FailureReport)
	// OnReportAcked fires when this sensor accepts an ack addressed to one
	// of its own reports (before the pending-report lookup, so acks for
	// already-cleared reports are observed too).
	OnReportAcked func(ack wire.ReportAck)
}

type guardee struct {
	id        radio.NodeID
	loc       geom.Point
	lastHeard sim.Time
}

// robotTrack is the last accepted state for a known robot or manager, and
// the flood duplicate suppression for that station as a flood origin.
// A sensor hears only the few robots near it, however large the fleet, so
// its tracks are a short ID-ascending list of the stations it has heard
// (robotIndex): the per-tick scans walk contiguous memory, and memory
// grows with the robots heard, not with the fleet.
type robotTrack struct {
	loc   geom.Point
	seq   uint64
	heard sim.Time // last reception (expiry bookkeeping)
	// floodSeq is the highest flood Seq handled from this origin, valid
	// when flooded. Unlike the rest of the track it outlives expiry: a
	// sensor relays each flood instance once, whatever it forgot since.
	floodSeq uint64
	id       int32 // station ID; trackable keeps it in range
	known    bool
	flooded  bool
}

// trackable reports whether id fits a robot track. Station IDs are
// positive and far below 2^31; the guards drop anything else a forged or
// corrupted frame could carry.
func trackable(id radio.NodeID) bool { return id >= 0 && id <= math.MaxInt32 }

// Sensor is one static sensor node.
//
// A field holds one Sensor per deployed node, so the struct keeps only
// per-node state: what every sensor of the world shares (the Config, the
// policy, the hooks and the medium) sits behind one Env pointer, the
// neighbor table is held inline and keeps no IDs of its static peers (the
// medium's static set has them), flood duplicate suppression lives in the
// robot tracks, the beacon timer is one event the sensor re-arms itself,
// and the router is built on demand from fields the sensor already has.
type Sensor struct {
	id  radio.NodeID
	pos geom.Point
	env *Env // shared by the world's sensors; never written

	alive bool
	table netstack.NeighborTable // used with s.statics()
	// beat is the pending beacon tick; fire is s.beatTick, bound once so
	// re-arming allocates nothing.
	beat sim.Event
	fire func()
	// beacon is the boxed wire.Beacon every beacon sends: a static
	// sensor's beacon never changes, so it is boxed once, on first use.
	beacon any

	guardian     radio.NodeID // 0 when none
	lastGuardian sim.Time
	guardees     []guardee // ID-ascending; a sensor guards at most a handful

	target    radio.NodeID // failure report destination
	targetLoc geom.Point
	robots    []robotTrack // robots/managers and flood origins heard, ID-ascending (never guardians)

	// replayRejected counts robot updates dropped by the StrictSeq guard.
	replayRejected uint64

	// Reliability-extension state (inert at the zero Reliability config).
	reportSeq   uint64
	pending     []*pendingReport // unacked reports, Seq-ascending
	lastFrameAt sim.Time         // last frame heard at all (deafness detection)
	manager     radio.NodeID     // current manager, exempt from expiry
}

var (
	_ radio.Station           = (*Sensor)(nil)
	_ netstack.Host           = (*Sensor)(nil)
	_ netstack.NeighborSource = (*Sensor)(nil)
)

// NewSensor constructs a sensor; call Start to boot it. env is shared, not
// copied: the caller must not change an Env once a sensor holds it (build
// a new one instead), and one Env may serve every sensor of a field.
func NewSensor(id radio.NodeID, pos geom.Point, env *Env) *Sensor {
	return &Sensor{
		id:      id,
		pos:     pos,
		env:     env,
		alive:   true,
		manager: env.Reliability.Manager,
	}
}

// medium returns the radio medium the sensor is attached to.
func (s *Sensor) medium() *radio.Medium { return s.env.Medium }

// statics returns what the sensor's table is used with: the medium and
// the sensor's own static set in it.
func (s *Sensor) statics() netstack.Statics {
	return netstack.Statics{Medium: s.env.Medium, Owner: s.id}
}

// sched returns the scheduler driving the sensor's medium.
func (s *Sensor) sched() *sim.Scheduler { return s.medium().Scheduler() }

// router returns the sensor's geographic router. It holds nothing the
// sensor lacks, so it is built per use rather than stored.
func (s *Sensor) router() netstack.Router {
	return netstack.Router{
		ID:     s.id,
		Host:   s,
		Medium: s.medium(),
		Source: s,
	}
}

// RoutingNeighbors implements netstack.NeighborSource with a read-only
// view of the sensor's table: no copy is made. The router reads it only
// before the hop's transmit, which is the first point where a synchronous
// delivery could mutate the table. The sensor is its own source so that
// building a router boxes nothing.
func (s *Sensor) RoutingNeighbors() netstack.NeighborView { return s.table.View(s.statics()) }

// inRange reports whether loc is within the sensor's range, by the test
// the radio applies to a delivery (squared distances): a peer the radio
// delivers to is a peer the table accepts.
func (s *Sensor) inRange(loc geom.Point) bool {
	return s.pos.Dist2(loc) <= s.env.Range*s.env.Range
}

// beaconPayload returns the sensor's boxed beacon, boxing it on first use.
func (s *Sensor) beaconPayload() any {
	if s.beacon == nil {
		s.beacon = wire.Beacon{From: s.id, Loc: s.pos}
	}
	return s.beacon
}

// ID returns the sensor's address.
func (s *Sensor) ID() radio.NodeID { return s.id }

// Pos returns the sensor's (fixed) location.
func (s *Sensor) Pos() geom.Point { return s.pos }

// Config returns the configuration the sensor was built with. It is shared
// with other sensors and must not be modified.
func (s *Sensor) Config() *Config { return &s.env.Config }

// Alive reports whether the sensor is operational.
func (s *Sensor) Alive() bool { return s.alive }

// Location implements failure.Failable.
func (s *Sensor) Location() geom.Point { return s.pos }

// Target returns the sensor's current failure-report destination.
func (s *Sensor) Target() (radio.NodeID, geom.Point) { return s.target, s.targetLoc }

// SetTarget sets the report destination ("myrobot" or the manager).
func (s *Sensor) SetTarget(id radio.NodeID, loc geom.Point) {
	s.target = id
	s.targetLoc = loc
}

// robotAt returns the track of a known robot, or nil.
func (s *Sensor) robotAt(id radio.NodeID) *robotTrack {
	if i, ok := s.robotIndex(id); ok && s.robots[i].known {
		return &s.robots[i]
	}
	return nil
}

// robotIndex binary-searches the ID-ascending tracks for id: it returns
// id's index and true, or the index at which id belongs and false.
func (s *Sensor) robotIndex(id radio.NodeID) (int, bool) {
	lo, hi := 0, len(s.robots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if radio.NodeID(s.robots[m].id) < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.robots) && radio.NodeID(s.robots[lo].id) == id
}

// robotSlot returns id's track, inserting an empty one in ID order when
// id was never heard. id must be trackable. The list grows by append:
// sizing it to the fleet up front would cost every sensor a fleet-sized
// table although it hears only its neighbourhood's robots.
func (s *Sensor) robotSlot(id radio.NodeID) *robotTrack {
	i, ok := s.robotIndex(id)
	if !ok {
		s.robots = append(s.robots, robotTrack{})
		copy(s.robots[i+1:], s.robots[i:])
		s.robots[i] = robotTrack{id: int32(id)}
	}
	return &s.robots[i]
}

// guardeeAt returns the index of id in the guardee list, or -1.
func (s *Sensor) guardeeAt(id radio.NodeID) int {
	for i := range s.guardees {
		if s.guardees[i].id == id {
			return i
		}
	}
	return -1
}

// upsertGuardee inserts or refreshes a guardee, keeping the list
// ID-ascending so the per-tick liveness scan is reproducible without
// sorting.
func (s *Sensor) upsertGuardee(id radio.NodeID, loc geom.Point, now sim.Time) {
	i := sort.Search(len(s.guardees), func(i int) bool { return s.guardees[i].id >= id })
	if i < len(s.guardees) && s.guardees[i].id == id {
		s.guardees[i] = guardee{id: id, loc: loc, lastHeard: now}
		return
	}
	s.guardees = append(s.guardees, guardee{})
	copy(s.guardees[i+1:], s.guardees[i:])
	s.guardees[i] = guardee{id: id, loc: loc, lastHeard: now}
}

// Table exposes the neighbor table (used by tests and diagnostics).
func (s *Sensor) Table() *netstack.NeighborTable { return &s.table }

// upsertNeighbor records a neighbor in the table. The table's first
// insertion of a static peer makes its slots, one per member of the
// sensor's static set: a static sensor only ever hears the static
// stations of that set at their own positions; robots, and peers heard
// elsewhere, go to the table's located list.
func (s *Sensor) upsertNeighbor(id radio.NodeID, loc geom.Point, now sim.Time) {
	s.table.Upsert(s.statics(), id, loc, now)
}

// ReplayRejected reports how many robot updates the StrictSeq guard
// rejected as stale.
func (s *Sensor) ReplayRejected() uint64 { return s.replayRejected }

// ClosestKnownRobot returns the robot closest to this sensor according to
// the last-heard locations, resolving ties by lowest ID for determinism
// (the walk is ID-ascending, so a strict improvement test keeps the
// lowest ID on ties).
func (s *Sensor) ClosestKnownRobot() (radio.NodeID, geom.Point, bool) {
	var bestID radio.NodeID
	var bestLoc geom.Point
	bestD := -1.0
	for i := range s.robots {
		tr := &s.robots[i]
		if !tr.known {
			continue
		}
		d := s.pos.Dist2(tr.loc)
		if bestD < 0 || d < bestD {
			bestID, bestLoc, bestD = radio.NodeID(tr.id), tr.loc, d
		}
	}
	return bestID, bestLoc, bestD >= 0
}

// RadioID implements radio.Station.
func (s *Sensor) RadioID() radio.NodeID { return s.id }

// RadioPos implements radio.Station.
func (s *Sensor) RadioPos() geom.Point { return s.pos }

// RadioRange implements radio.Station.
func (s *Sensor) RadioRange() float64 { return s.env.Range }

// RadioActive implements radio.Station.
func (s *Sensor) RadioActive() bool { return s.alive }

// DropPacket implements netstack.Host: a routed packet discarded with this
// sensor as its relay.
func (s *Sensor) DropPacket(_ netstack.Packet, r netstack.DropReason) {
	s.medium().Metrics().CountTx("drop_"+string(r), 1)
}

// Start attaches the sensor to the medium and boots it: it announces its
// location (one-hop) after announceOffset — so that every station of the
// initial deployment is attached before the first announcement fires —
// schedules guardian selection after SettleDelay, and arms the first
// beacon tick at beaconOffset; each tick re-arms the next one period
// later.
//
// replacement marks a node deployed by a robot mid-run; its announcement
// is counted as replacement traffic and prompts neighbors to beacon back.
func (s *Sensor) Start(announceOffset, beaconOffset sim.Duration, replacement bool) {
	s.medium().Attach(s)
	cat := metrics.CatInit
	if replacement {
		cat = metrics.CatReplacement
	}
	s.sched().After(announceOffset, func() {
		if !s.alive {
			return
		}
		s.medium().Send(radio.Frame{
			Src:      s.id,
			Dst:      radio.IDBroadcast,
			Category: cat,
			Payload:  wire.LocationAnnounce{From: s.id, Loc: s.pos, Replacement: replacement},
		})
	})
	sched := s.sched()
	sched.After(s.env.SettleDelay, s.selectGuardian)
	if p := s.env.BeaconPeriod; !(p > 0) || math.IsInf(float64(p), 1) {
		// Unreachable: BeaconPeriod is validated by the scenario config.
		panic(fmt.Sprintf("node: beacon period %v not positive and finite", p))
	}
	s.fire = s.beatTick
	s.beat = sched.After(beaconOffset, s.fire)
}

// beatTick is the beacon timer body: the tick, then — while the sensor
// lives — the next tick one period later. The order (body first, re-arm
// after) is what fixes the re-armed event's sequence number.
func (s *Sensor) beatTick() {
	s.tick()
	if s.alive {
		s.beat = s.sched().After(s.env.BeaconPeriod, s.fire)
	}
}

// FailNow implements failure.Failable: the sensor goes silent immediately.
func (s *Sensor) FailNow() {
	if !s.alive {
		return
	}
	s.alive = false
	s.medium().SetActive(s.id, false)
	sched := s.sched()
	sched.Cancel(s.beat)
	for _, p := range s.pending {
		sched.Cancel(p.ev) // dead guardians stop retransmitting
	}
	s.pending = nil
}

// tick sends the periodic beacon and runs the failure-detection checks.
func (s *Sensor) tick() {
	if !s.alive {
		return
	}
	now := s.sched().Now()
	s.medium().Send(radio.Frame{
		Src:      s.id,
		Dst:      radio.IDBroadcast,
		Category: metrics.CatBeacon,
		Payload:  s.beaconPayload(),
	})

	deadline := now.Sub(s.env.BeaconPeriod * sim.Duration(s.env.MissedBeacons))

	// Guardee liveness: a silent guardee has failed — report it. The
	// guardee list is ID-ascending, so runs are reproducible.
	var failed []guardee
	kept := s.guardees[:0]
	for _, g := range s.guardees {
		if g.lastHeard < deadline {
			failed = append(failed, g)
		} else {
			kept = append(kept, g)
		}
	}
	s.guardees = kept
	for _, g := range failed {
		s.table.Remove(s.statics(), g.id)
		if s.env.Reliability.RetryEnabled() {
			// Confirmation grace: hold the report for two beacon periods.
			// A guardee that was merely silenced (a radio blackout lifting
			// makes every neighbor look 1000s-dead at once) beacons within
			// one period and cancels the false report before any traffic;
			// a real failure is reported 2 periods later — noise against
			// repair delays.
			s.reportAfter(g.id, g.loc, now, 2*s.env.BeaconPeriod)
		} else {
			s.report(g.id, g.loc, now)
		}
	}

	// Guardian liveness: a silent guardian is replaced, not reported
	// (its own guardian reports it).
	if s.guardian != 0 && s.lastGuardian < deadline {
		s.table.Remove(s.statics(), s.guardian)
		s.guardian = 0
		s.selectGuardian()
	}

	// Neighbor watch (reliability extension): collect the silent
	// non-robot neighbors about to be purged — each will be reported, not
	// just forgotten, closing the guardian scheme's blind spot (a guardian
	// dying inside its guardee's detection window strands the guardee).
	// A tick rarely finds more than a few, so they collect on the stack.
	var buf [8]netstack.Neighbor
	watch := buf[:0]
	if s.env.Reliability.NeighborWatch {
		it := s.table.View(s.statics()).Iter()
		for n, ok := it.Next(); ok; n, ok = it.Next() {
			if n.LastHeard >= deadline {
				continue
			}
			if s.robotAt(n.ID) == nil {
				watch = append(watch, n)
			}
		}
	}

	// Purge other stale neighbors so routing never picks a dead relay.
	// Robots are exempt: they beacon on their own schedule (location
	// updates), and purging them would orphan the last-hop delivery.
	s.table.Purge(s.statics(), deadline, func(n netstack.Neighbor) (netstack.Neighbor, bool) {
		tr := s.robotAt(n.ID)
		if tr == nil || !s.inRange(tr.loc) {
			return n, false
		}
		n.Loc, n.LastHeard = tr.loc, now
		return n, true
	})
	for _, n := range watch {
		s.reportAfter(n.ID, n.Loc, now, s.env.Reliability.WatchGrace)
	}

	// Expire dead robots so reports chase survivors, not ghosts.
	if s.env.Reliability.RobotExpiry > 0 {
		s.expireRobots(now)
	}
}

// selectGuardian picks the nearest alive neighbor permitted by the policy
// and confirms the relationship.
func (s *Sensor) selectGuardian() {
	if !s.alive || s.guardian != 0 {
		return
	}
	var chosen netstack.Neighbor
	found := false
	it := s.table.View(s.statics()).Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		if s.robotAt(n.ID) != nil || !s.env.Policy.GuardianOK(s.pos, n.Loc) {
			continue
		}
		if !found || n.Loc.Dist2(s.pos) < chosen.Loc.Dist2(s.pos) {
			chosen, found = n, true
		}
	}
	if !found {
		return // isolated sensor: unguarded, as in the paper's model
	}
	s.guardian = chosen.ID
	s.lastGuardian = s.sched().Now()
	s.medium().Send(radio.Frame{
		Src:      s.id,
		Dst:      s.guardian,
		Category: metrics.CatInit,
		Payload:  wire.GuardianConfirm{From: s.id, Loc: s.pos},
	})
}

// report originates a failure report toward the sensor's current target.
// With retransmission enabled the report is numbered, tracked, and re-sent
// with capped exponential backoff until acked or observed repaired.
func (s *Sensor) report(failed radio.NodeID, loc geom.Point, now sim.Time) {
	rep := wire.FailureReport{Failed: failed, Loc: loc, Reporter: s.id, DetectedAt: now}
	if s.env.Reliability.RetryEnabled() {
		s.reportSeq++
		rep.Seq = s.reportSeq
		rep.ReporterLoc = s.pos
		s.sendReport(s.newPending(rep))
		return
	}
	if s.target == 0 {
		return // no known manager: the failure goes unreported
	}
	if s.env.Hooks.OnReportSent != nil {
		s.env.Hooks.OnReportSent(rep)
	}
	r := s.router()
	r.Originate(netstack.Packet{
		Dst:      s.target,
		DstLoc:   s.targetLoc,
		Category: metrics.CatFailureReport,
		Payload:  rep,
	})
}

// HandleFrame implements radio.Station.
func (s *Sensor) HandleFrame(f radio.Frame) {
	if !s.alive {
		return
	}
	now := s.sched().Now()
	if s.env.Reliability.RetryEnabled() {
		// Deafness resync: a sensor that heard no frame at all for a full
		// detection window was cut off (e.g. a regional radio blackout), so
		// every silence verdict formed in the gap is suspect. Re-grant the
		// unacked pending reports a confirmation grace before accusing.
		deaf := s.env.BeaconPeriod * sim.Duration(s.env.MissedBeacons)
		if s.lastFrameAt > 0 && now.Sub(s.lastFrameAt) > deaf {
			s.resyncPendings()
		}
		s.lastFrameAt = now
	}
	switch m := f.Payload.(type) {
	case wire.Beacon:
		s.hearNeighbor(m.From, m.Loc, now)
		// A beacon from a reported location means the site is alive after
		// all: a blackout false positive resurfacing, or a replacement
		// whose boot announce this reporter missed.
		s.observeRepair(m.Loc)
	case wire.LocationAnnounce:
		s.hearNeighbor(m.From, m.Loc, now)
		if m.Replacement {
			// The repair happened: stop retransmitting reports for this
			// location even if the ack never arrived.
			s.observeRepair(m.Loc)
			// §4.2(a): answer a replacement node's boot broadcast with a
			// beacon so it can build its neighbor table.
			s.medium().Send(radio.Frame{
				Src:      s.id,
				Dst:      radio.IDBroadcast,
				Category: metrics.CatReplacement,
				Payload:  s.beaconPayload(),
			})
		}
	case wire.GuardianConfirm:
		s.upsertGuardee(m.From, m.Loc, now)
		s.hearNeighbor(m.From, m.Loc, now)
	case wire.RobotUpdate:
		// One-hop robot announce (centralized location update).
		s.noteRobot(m, now)
	case netstack.FloodMsg:
		s.handleFlood(m, now)
	case netstack.Packet:
		r := s.router()
		r.Receive(m)
	}
}

// hearNeighbor refreshes detection and routing state for a one-hop
// transmission from a sensor peer.
func (s *Sensor) hearNeighbor(from radio.NodeID, loc geom.Point, now sim.Time) {
	if s.inRange(loc) {
		// Only bidirectionally reachable peers are usable next hops.
		s.upsertNeighbor(from, loc, now)
	}
	if i := s.guardeeAt(from); i >= 0 {
		s.guardees[i].lastHeard = now
	}
	if from == s.guardian {
		s.lastGuardian = now
	}
}

// noteRobot records a robot's position and refreshes target/table state.
func (s *Sensor) noteRobot(up wire.RobotUpdate, now sim.Time) {
	if !trackable(up.Robot) {
		return // defensive: no station has this ID
	}
	tr := s.robotSlot(up.Robot)
	if s.env.StrictSeq && tr.known && up.Seq < tr.seq {
		// Hostile channel: a replayed update would roll the robot's
		// position back. Equal Seq is an idempotent duplicate and passes.
		s.replayRejected++
		return
	}
	tr.loc, tr.seq, tr.heard, tr.known = up.Loc, up.Seq, now, true
	if s.inRange(up.Loc) {
		s.upsertNeighbor(up.Robot, up.Loc, now)
	} else {
		s.table.Remove(s.statics(), up.Robot)
	}
	if up.Robot == s.target {
		s.targetLoc = up.Loc
	}
}

// freshFlood implements the duplicate suppression of controlled flooding:
// "a sensor may receive the same update message multiple times, but it
// relays the message to its neighbors only once. This is achieved by
// remembering the sequence number of the robot location updates it has
// relayed before" (paper §3.2). Every flood origin is a robot or the
// manager, and sequence numbers are monotone per origin, so the highest
// handled Seq lives in the origin's robot track. It reports whether m is
// the first copy of its (origin, seq) instance seen here, and marks it
// handled; later copies and lower sequence numbers report false.
func (s *Sensor) freshFlood(m netstack.FloodMsg) bool {
	if !trackable(m.Origin) {
		return false // defensive: no station has this ID
	}
	tr := s.robotSlot(m.Origin)
	if tr.flooded && m.Seq <= tr.floodSeq {
		return false
	}
	tr.floodSeq, tr.flooded = m.Seq, true
	return true
}

// handleFlood applies duplicate suppression, lets the policy decide
// adoption/relaying, and rebroadcasts when appropriate.
func (s *Sensor) handleFlood(m netstack.FloodMsg, now sim.Time) {
	var relay bool
	switch pl := m.Payload.(type) {
	case wire.RobotUpdate:
		if !s.freshFlood(m) {
			return
		}
		s.noteRobot(pl, now)
		relay = s.env.Policy.Consider(s, pl)
		if pl.Managing && pl.Robot != s.manager {
			// A standing manager claim in a heartbeat: the fleet elected
			// this robot after a takeover. Sensors that missed the one-shot
			// takeover flood (blackout, late boot) converge here.
			s.adoptManager(wire.ManagerTakeover{Manager: pl.Robot, Loc: pl.Loc}, now)
			relay = true
		} else if s.manager != 0 && pl.Robot == s.manager {
			// A managing robot's flooded heartbeat: keep the route to the
			// post-takeover manager fresh everywhere, whatever the policy
			// thinks of ordinary robots.
			s.SetTarget(pl.Robot, pl.Loc)
			relay = true
		} else if !relay && s.env.Reliability.OrphanAdopt && s.target == 0 {
			// Orphaned sensor: adopt the closest robot it knows even when
			// the policy declines (fixed's cross-subarea fallback), and
			// relay so the flood sweeps the whole orphaned cell.
			if id, loc, ok := s.ClosestKnownRobot(); ok {
				s.SetTarget(id, loc)
				relay = true
			}
		}
	case wire.ManagerTakeover:
		if !s.freshFlood(m) {
			return
		}
		s.adoptManager(pl, now)
		relay = true
	default:
		return
	}
	if !relay || m.TTL <= 1 {
		return
	}
	if !broadcastopt.Contains(m.Relays, s.id) {
		return // not a designated forwarder under efficient broadcast
	}
	var relays []radio.NodeID
	if s.env.EfficientBroadcast {
		relays = broadcastopt.SelectRelays(s.pos, s.table.View(s.statics()), broadcastopt.DefaultSectors)
	}
	s.medium().Send(radio.Frame{
		Src:      s.id,
		Dst:      radio.IDBroadcast,
		Category: m.Category,
		Payload: netstack.FloodMsg{
			Origin:   m.Origin,
			Seq:      m.Seq,
			Category: m.Category,
			Payload:  m.Payload,
			Hops:     m.Hops + 1,
			TTL:      m.TTL - 1,
			Relays:   relays,
		},
	})
}
