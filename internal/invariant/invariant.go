// Package invariant is the simulator's runtime conservation-law checker:
// an opt-in layer that observes kernel, medium, robot, and scenario events
// during a run and records structured violations when the simulation's
// bookkeeping breaks — time running backwards, events double-freed, robots
// teleporting, frames delivered outside the unit disk, failures repaired
// that were never injected.
//
// The layer follows the telemetry pattern: the zero Config disables it, no
// Checker is built, and every instrumented path reduces to a nil check, so
// runs with invariants off reproduce the unchecked simulator's behavior
// and allocations bit-for-bit. Checking reads only deterministic
// simulation state, so the violation list for a fixed (Config, Seed) is
// byte-identical whatever the worker count of the surrounding grid.
//
// Violations never stop a run: the checker records them (sim-time and
// entity IDs attached) and the caller decides — tests fail, cmd/invck
// exits nonzero, repairsim prints them.
package invariant

import (
	"fmt"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

// Law names, one per conservation law. The "pkg/name" form tells the
// reader which package enforces the law; see DESIGN.md §10 for the
// catalogue.
const (
	// LawClockMonotone: virtual time never decreases across event
	// dispatches (enforced inside the sim kernel).
	LawClockMonotone = "sim/clock-monotone"
	// LawFreeList: an event is released to the free list exactly once per
	// allocation — no double free (sim kernel).
	LawFreeList = "sim/free-list"
	// LawQueueIntegrity: the event queue never dispatches freed (stale-
	// generation) storage (sim kernel).
	LawQueueIntegrity = "sim/queue-integrity"
	// LawKinematics: a robot never moves farther than speed × elapsed
	// between position fixes — no teleports (robot package hook).
	LawKinematics = "robot/kinematics"
	// LawUnitDisk: no frame is delivered to a station outside the sender's
	// transmission range (radio medium hook).
	LawUnitDisk = "radio/unit-disk"
	// LawTxConservation: unicast deliveries never exceed unicast
	// transmissions (radio medium accounting).
	LawTxConservation = "radio/tx-conservation"
	// LawFailureConservation: every injected failure ends exactly once —
	// repaired, unrepaired at the horizon, or duplicate-suppressed — and
	// the Results counters sum to the injected total (scenario wiring).
	LawFailureConservation = "scenario/failure-conservation"
	// LawReportSeq: a reporter never reuses a failure-report sequence
	// number (node reliability hook). First transmissions of grace-delayed
	// reports may legitimately leave the reporter out of assignment order,
	// so the machine-checked form of "seq numbers monotone per reporter"
	// is uniqueness of the monotone assignment counter.
	LawReportSeq = "node/report-seq"
	// LawReportAck: every report ack a reporter accepts names a sequence
	// number that reporter actually transmitted (node reliability hook).
	LawReportAck = "node/report-ack"
	// LawEnergyConservation: a robot's battery ledger balances — spent +
	// remaining ≡ initial capacity + recharged — the energy spent covers
	// at least the motion the robot logged, and a dead robot never moves
	// again (battery-extension hooks).
	LawEnergyConservation = "robot/energy-conservation"
)

// Config parameterizes the invariant layer of one run. The zero value
// disables checking entirely.
type Config struct {
	// Enabled switches the whole layer on.
	Enabled bool `json:"enabled,omitempty"`
	// Limit caps the violations retained per run (default 100 when
	// Enabled); further violations are not stored, so a
	// systematically broken run cannot exhaust memory with diagnostics.
	Limit int `json:"limit,omitempty"`
}

// WithDefaults fills unset knobs with the documented defaults.
func (c Config) WithDefaults() Config {
	if !c.Enabled {
		return c
	}
	if c.Limit <= 0 {
		c.Limit = 100
	}
	return c
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Limit < 0 {
		return fmt.Errorf("invariant: violation limit %d negative", c.Limit)
	}
	return nil
}

// Violation is one detected conservation-law breach.
type Violation struct {
	// Law names the broken law (one of the Law* constants).
	Law string `json:"law"`
	// At is the virtual time the violation was detected.
	At sim.Time `json:"atS"`
	// Entity identifies the involved entity ("n17", "robot 3", "site
	// (12.0, 88.5)"); empty for run-global laws.
	Entity string `json:"entity,omitempty"`
	// Detail is the human-readable diagnosis with the numbers that
	// disagreed.
	Detail string `json:"detail"`
}

// First returns the earliest violation by detection time (ties keep the
// recorded order), for tools that replay a run from the snapshot nearest
// the first breach. ok is false when vs is empty.
func First(vs []Violation) (v Violation, ok bool) {
	for i, c := range vs {
		if i == 0 || c.At < v.At {
			v, ok = c, true
		}
	}
	return v, ok
}

// String renders the violation as a one-line diagnostic.
func (v Violation) String() string {
	if v.Entity == "" {
		return fmt.Sprintf("%s at %v: %s", v.Law, v.At, v.Detail)
	}
	return fmt.Sprintf("%s at %v [%s]: %s", v.Law, v.At, v.Entity, v.Detail)
}

// Totals carries the run-level Results counters into Finalize for the
// failure-conservation cross-check. It is a plain struct so the checker
// stays independent of the scenario package.
type Totals struct {
	// FailuresInjected is the run's injected-failure count.
	FailuresInjected int
	// Repairs is the run's completed-repair count.
	Repairs int
	// DuplicateRepairs is the run's duplicate-visit count.
	DuplicateRepairs int
	// UnrepairedFailures is the count of sites with no live sensor at the
	// horizon.
	UnrepairedFailures int
}

// siteState tracks the failure lifecycle at one deployment site.
type siteState struct {
	spawned int // sensors ever placed here (initial deploy + replacements)
	killed  int // sensors that died here
	open    int // injected failures not yet closed by a repair
}

// Checker accumulates violations for one run. It is single-threaded,
// driven by the simulation it observes; distinct runs own distinct
// Checkers. A nil *Checker is inert only through the wiring layer's nil
// checks — methods must not be called on nil.
type Checker struct {
	cfg Config
	now func() sim.Time

	violations []Violation

	// Robot kinematics.
	robotSpeed float64

	// Battery extension: dead robots (battery exhaustion or injected
	// breakdown) must not move again, and the final ledgers are checked
	// against the motion-energy floor in joules per meter of travel.
	deadRobots  map[radio.NodeID]bool
	motionJPerM float64

	// Radio accounting. dupUnicast credits unicast deliveries the hostile
	// channel injected (duplicated or replayed frames) on top of real
	// transmissions.
	txUnicast  uint64
	rxUnicast  uint64
	dupUnicast uint64
	txTotal    uint64

	// Failure lifecycle, keyed by deployment site (replacements boot at
	// exactly the failed sensor's coordinates).
	sites          map[geom.Point]*siteState
	opened         int
	closed         int
	duplicates     int
	falsePositives int // repairs at sites with a live sensor and no open failure

	// Reliability protocol: per-reporter transmitted sequence numbers.
	sentSeqs map[radio.NodeID]map[uint64]bool
}

// NewChecker builds a checker for one run. now is the run's virtual
// clock (sim.Scheduler.Now).
func NewChecker(cfg Config, now func() sim.Time) *Checker {
	return &Checker{
		cfg:        cfg.WithDefaults(),
		now:        now,
		sites:      make(map[geom.Point]*siteState),
		sentSeqs:   make(map[radio.NodeID]map[uint64]bool),
		deadRobots: make(map[radio.NodeID]bool),
	}
}

// SetRobotSpeed declares the (uniform) robot travel speed the kinematics
// law checks against.
func (c *Checker) SetRobotSpeed(speed float64) { c.robotSpeed = speed }

// SetMotionEnergy declares the fleet's motion cost in joules per meter of
// travel; the energy-conservation law uses it as a lower bound on what a
// robot's odometer implies its battery must have spent.
func (c *Checker) SetMotionEnergy(joulesPerMeter float64) { c.motionJPerM = joulesPerMeter }

// RobotDied records that a robot is permanently down (battery exhaustion
// or injected breakdown); any later position fix with displacement is a
// violation — the dead do not walk.
func (c *Checker) RobotDied(id radio.NodeID) { c.deadRobots[id] = true }

// Violate records one violation, subject to the retention limit.
func (c *Checker) Violate(law, entity, detail string) {
	if len(c.violations) >= c.cfg.Limit {
		return
	}
	c.violations = append(c.violations, Violation{
		Law: law, At: c.now(), Entity: entity, Detail: detail,
	})
}

// Violations returns the recorded violations (nil when the run was clean).
func (c *Checker) Violations() []Violation { return c.violations }

// KernelAudit returns the sim-kernel audit adapter to install with
// sim.Scheduler.SetAudit: the kernel detects its own bookkeeping breaches
// (clock regression, double free, stale dispatch) and reports them here.
func (c *Checker) KernelAudit() *sim.Audit {
	return &sim.Audit{
		Violation: func(law string, _ sim.Time, detail string) {
			c.Violate(law, "", detail)
		},
	}
}

// kinematicsEps absorbs float64 rounding in anchor arithmetic: arrival
// times are quantized to the clock's resolution, so a leg's distance can
// exceed speed × elapsed by a few ulps, never by meters.
const kinematicsEps = 1e-6

// RobotMoved checks one robot position fix against the kinematics law:
// the robot was anchored at from since fromAt and now fixes at to, so the
// straight-line displacement must not exceed speed × elapsed.
func (c *Checker) RobotMoved(id radio.NodeID, from geom.Point, fromAt sim.Time, to geom.Point) {
	dist := from.Dist(to)
	if dist == 0 {
		return
	}
	if c.deadRobots[id] {
		c.Violate(LawEnergyConservation, id.String(), fmt.Sprintf(
			"dead robot moved %.6f m from %v to %v", dist, from, to))
		return
	}
	elapsed := float64(c.now().Sub(fromAt))
	allowed := c.robotSpeed*elapsed + kinematicsEps
	if dist > allowed {
		c.Violate(LawKinematics, id.String(), fmt.Sprintf(
			"moved %.6f m in %.6f s at speed %g m/s (max %.6f m): teleport from %v to %v",
			dist, elapsed, c.robotSpeed, allowed, from, to))
	}
}

// FrameSent implements radio.Auditor.
func (c *Checker) FrameSent(f radio.Frame) {
	c.txTotal++
	if f.Dst != radio.IDBroadcast {
		c.txUnicast++
	}
}

// FrameDuplicated implements radio.Auditor: the hostile channel injected
// an extra delivery of f (duplication or stale replay), which the
// matching FrameDelivered will count as a reception without a
// transmission behind it.
func (c *Checker) FrameDuplicated(f radio.Frame) {
	if f.Dst != radio.IDBroadcast {
		c.dupUnicast++
	}
}

// FrameDelivered implements radio.Auditor: the medium is about to hand f
// (transmitted at from with range rng) to dst.
func (c *Checker) FrameDelivered(f radio.Frame, from geom.Point, rng float64, dst radio.Station) {
	if f.Dst != radio.IDBroadcast {
		c.rxUnicast++
		if dst.RadioID() != f.Dst {
			c.Violate(LawTxConservation, dst.RadioID().String(), fmt.Sprintf(
				"unicast frame addressed to %v delivered to %v", f.Dst, dst.RadioID()))
		}
	}
	d2 := from.Dist2(dst.RadioPos())
	if d2 > rng*rng*(1+1e-9)+1e-9 {
		c.Violate(LawUnitDisk, dst.RadioID().String(), fmt.Sprintf(
			"frame %s→%s delivered over %.3f m, range %.3f m",
			f.Src, dst.RadioID(), from.Dist(dst.RadioPos()), rng))
	}
}

// site returns the lifecycle record for pos, creating it on first use.
func (c *Checker) site(pos geom.Point) *siteState {
	st := c.sites[pos]
	if st == nil {
		st = &siteState{}
		c.sites[pos] = st
	}
	return st
}

// SensorSpawned records a sensor placement (initial deployment or
// replacement) so the checker can tell false-positive repairs — a robot
// replacing a node that is still alive — from repairs of nothing.
func (c *Checker) SensorSpawned(_ radio.NodeID, pos geom.Point) {
	c.site(pos).spawned++
}

// FailureInjected records one injected sensor failure: it opens the
// failure's lifecycle record, to be closed exactly once by a repair or
// left open (unrepaired) at the horizon.
func (c *Checker) FailureInjected(_ radio.NodeID, pos geom.Point) {
	st := c.site(pos)
	st.killed++
	st.open++
	c.opened++
	if st.killed > st.spawned {
		c.Violate(LawFailureConservation, "site "+pos.String(), fmt.Sprintf(
			"%d failures injected at a site with only %d sensors ever placed",
			st.killed, st.spawned))
	}
}

// RepairCompleted records a completed repair at pos. A repair must close
// an open failure; replacing a live sensor (a blackout false positive
// under the fire-and-forget model) is benign and tracked separately, but
// a repair at a site with neither an open failure nor a live sensor
// breaks conservation.
func (c *Checker) RepairCompleted(_ radio.NodeID, pos geom.Point) {
	st := c.site(pos)
	switch {
	case st.open > 0:
		st.open--
		c.closed++
	case st.spawned > st.killed:
		c.falsePositives++
	default:
		c.Violate(LawFailureConservation, "site "+pos.String(),
			"repair completed with no open failure and no live sensor at the site")
	}
}

// DuplicateVisit records a robot visit to a site already covered by a
// live sensor where the trip was suppressed (no replacement deployed).
func (c *Checker) DuplicateVisit(pos geom.Point) {
	c.duplicates++
	if st := c.site(pos); st.spawned <= st.killed {
		c.Violate(LawFailureConservation, "site "+pos.String(),
			"visit suppressed as duplicate but no live sensor covers the site")
	}
}

// ReportSent records the first transmission of a numbered failure report
// and checks the sequence-number law.
func (c *Checker) ReportSent(reporter radio.NodeID, seq uint64) {
	if seq == 0 {
		c.Violate(LawReportSeq, reporter.String(), "numbered report sent with seq 0")
		return
	}
	seen := c.sentSeqs[reporter]
	if seen == nil {
		seen = make(map[uint64]bool)
		c.sentSeqs[reporter] = seen
	}
	if seen[seq] {
		c.Violate(LawReportSeq, reporter.String(), fmt.Sprintf(
			"seq %d reused for a new report", seq))
		return
	}
	seen[seq] = true
}

// ReportRetx checks that a retransmission re-sends a sequence number whose
// first transmission was observed.
func (c *Checker) ReportRetx(reporter radio.NodeID, seq uint64) {
	if !c.sentSeqs[reporter][seq] {
		c.Violate(LawReportSeq, reporter.String(), fmt.Sprintf(
			"retransmission of seq %d, which was never first-sent", seq))
	}
}

// ReportAcked checks that an accepted report ack names a transmitted
// sequence number.
func (c *Checker) ReportAcked(reporter radio.NodeID, seq uint64) {
	if !c.sentSeqs[reporter][seq] {
		c.Violate(LawReportAck, reporter.String(), fmt.Sprintf(
			"ack accepted for seq %d, which was never sent", seq))
	}
}

// RobotEnergy checks one robot's final battery ledger against the
// energy-conservation law. Two independent cross-checks: the double-entry
// ledger must balance (spent + remaining ≡ initial + recharged), and the
// spent side must cover at least the motion energy implied by the robot's
// separately-maintained odometer (every traveled meter was debited at the
// declared joules-per-meter motion cost; idle draw only adds on top).
// Call it once per robot at end of run, before reading Violations.
func (c *Checker) RobotEnergy(id radio.NodeID, initialJ, spentJ, remainingJ, rechargedJ, traveledM float64) {
	entity := id.String()
	budget := initialJ + rechargedJ
	eps := 1e-8*budget + 1e-6 // accumulated ulps over thousands of lazy accruals
	if diff := spentJ + remainingJ - budget; diff > eps || diff < -eps {
		c.Violate(LawEnergyConservation, entity, fmt.Sprintf(
			"ledger imbalance: spent %.6f J + remaining %.6f J != initial %.6f J + recharged %.6f J (off by %.6f J)",
			spentJ, remainingJ, initialJ, rechargedJ, diff))
	}
	if c.motionJPerM > 0 {
		floor := traveledM * c.motionJPerM
		if spentJ+1e-8*floor+1e-6 < floor {
			c.Violate(LawEnergyConservation, entity, fmt.Sprintf(
				"spent %.6f J but the odometer's %.3f m of travel alone costs %.6f J: a leg went undebited",
				spentJ, traveledM, floor))
		}
	}
}

// Finalize cross-checks the run's Results counters against the observed
// event stream; call it once, after the horizon, before reading
// Violations. Every injected failure must be accounted for exactly once:
// opened = closed + still-open, the Results counters must match the
// observed repairs and duplicates, and every unrepaired site must hold an
// open failure.
func (c *Checker) Finalize(t Totals) {
	if t.FailuresInjected != c.opened {
		c.Violate(LawFailureConservation, "", fmt.Sprintf(
			"Results.FailuresInjected=%d but the checker observed %d injected failures",
			t.FailuresInjected, c.opened))
	}
	if got := c.closed + c.falsePositives; t.Repairs != got {
		c.Violate(LawFailureConservation, "", fmt.Sprintf(
			"Results.Repairs=%d but the checker observed %d (%d closing an open failure, %d false-positive)",
			t.Repairs, got, c.closed, c.falsePositives))
	}
	if t.DuplicateRepairs != c.duplicates {
		c.Violate(LawFailureConservation, "", fmt.Sprintf(
			"Results.DuplicateRepairs=%d but the checker observed %d duplicate visits",
			t.DuplicateRepairs, c.duplicates))
	}
	stillOpen, sitesOpen := 0, 0
	for _, st := range c.sites {
		stillOpen += st.open
		if st.open > 0 {
			sitesOpen++
		}
	}
	if c.opened != c.closed+stillOpen {
		c.Violate(LawFailureConservation, "", fmt.Sprintf(
			"%d failures opened but %d closed + %d still open",
			c.opened, c.closed, stillOpen))
	}
	if t.UnrepairedFailures > sitesOpen {
		c.Violate(LawFailureConservation, "", fmt.Sprintf(
			"Results.UnrepairedFailures=%d exceeds the %d sites with an open failure",
			t.UnrepairedFailures, sitesOpen))
	}
	if c.rxUnicast > c.txUnicast+c.dupUnicast {
		c.Violate(LawTxConservation, "", fmt.Sprintf(
			"%d unicast deliveries exceed %d unicast transmissions + %d injected duplicates",
			c.rxUnicast, c.txUnicast, c.dupUnicast))
	}
}
