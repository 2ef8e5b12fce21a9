// Package scenario assembles complete simulation runs: it builds the
// world (field, sensors, robots, manager), wires the chosen coordination
// algorithm, injects failures, runs the clock, and collects the metrics
// the paper's figures report.
package scenario

import (
	"fmt"
	"math"

	"roborepair/internal/algorithm"
	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/energy"
	"roborepair/internal/failure"
	"roborepair/internal/ftdc"
	"roborepair/internal/geom"
	"roborepair/internal/invariant"
	"roborepair/internal/metrics"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
	"roborepair/internal/telemetry"
)

// Config parameterizes one simulation run. DefaultConfig returns the
// paper's §4.1 values.
type Config struct {
	// Algorithm selects the coordination algorithm.
	Algorithm core.Algorithm `json:"algorithm"`
	// Robots is the number of maintenance robots (the paper uses 4, 9, 16).
	Robots int `json:"robots"`
	// AreaPerRobotSide is the side of the square of field area allotted
	// per robot; the total field is a square of side
	// AreaPerRobotSide·√Robots (200 m in the paper).
	AreaPerRobotSide float64 `json:"areaPerRobotSideM"`
	// SensorsPerRobot is the sensor count per robot's worth of area (50).
	SensorsPerRobot int `json:"sensorsPerRobot"`
	// SensorRange is the sensor transmission range (63 m).
	SensorRange float64 `json:"sensorRangeM"`
	// RobotRange is the robot/manager transmission range (250 m).
	RobotRange float64 `json:"robotRangeM"`
	// RobotSpeed is the robot travel speed (1 m/s).
	RobotSpeed float64 `json:"robotSpeedMps"`
	// UpdateThreshold is the distance between robot location updates (20 m).
	UpdateThreshold float64 `json:"updateThresholdM"`
	// BeaconPeriod is the sensor heartbeat period (10 s).
	BeaconPeriod float64 `json:"beaconPeriodS"`
	// MissedBeacons declares failure after this many silent periods (3).
	MissedBeacons int `json:"missedBeacons"`
	// MeanLifetime is the sensors' expected lifetime (16000 s).
	MeanLifetime float64 `json:"meanLifetimeS"`
	// SimTime is the simulated horizon (64000 s).
	SimTime float64 `json:"simTimeS"`
	// Seed drives every random stream of the run.
	Seed int64 `json:"seed"`
	// Partition selects the fixed algorithm's subarea shape.
	Partition geom.PartitionKind `json:"partition"`
	// ServiceTime is the node-swap duration at the failure site (0).
	ServiceTime float64 `json:"serviceTimeS"`
	// LossP, when positive, drops each reception with this probability
	// (robustness extension; the paper's medium is lossless).
	LossP float64 `json:"lossP"`
	// LifetimeShape, when not 1, switches the lifetime model to a Weibull
	// with this shape (extension; 0 or 1 keeps the exponential).
	LifetimeShape float64 `json:"lifetimeShape"`
	// EfficientBroadcast enables the §4.3.2 relay-set optimization for the
	// distributed algorithms' location-update floods (ABL-BCAST).
	EfficientBroadcast bool `json:"efficientBroadcast"`
	// NearestFirstQueue replaces the paper's FCFS robot queue with
	// nearest-task-first scheduling (extension ablation).
	NearestFirstQueue bool `json:"nearestFirstQueue"`
	// TraceCapacity enables the causal event trace: >0 keeps that many
	// events (FIFO), <0 keeps everything, 0 (default) records nothing.
	TraceCapacity int `json:"traceCapacity"`
	// Deployment selects how sensors are placed (uniform by default).
	Deployment Deployment `json:"deployment"`
	// SensingRange, when positive, enables sensing-coverage tracking: the
	// covered field fraction is sampled periodically into the
	// "coverage_fraction" series. The paper motivates replacement with
	// coverage but does not fix a sensing radius; 20 m is a typical value
	// at this density.
	SensingRange float64 `json:"sensingRangeM"`
	// CoverageSamplePeriod is the coverage sampling interval in seconds
	// (default 1000 when SensingRange > 0).
	CoverageSamplePeriod float64 `json:"coverageSamplePeriodS"`
	// CargoCapacity limits how many replacement nodes a robot carries
	// before restocking at the field-center depot (extension; 0 means
	// unlimited, the paper's implicit assumption).
	CargoCapacity int `json:"cargoCapacity"`
	// MACContention enables the collision MAC model: frames take airtime
	// (FrameBytes at BitrateMbps), start after a random backoff, and
	// overlapping receptions collide. Off by default (ideal medium — the
	// paper reports 100% delivery at this load anyway).
	MACContention bool `json:"macContention"`
	// BitrateMbps is the radio bitrate for the contention model
	// (11 Mbit/s in the paper; 0 selects 11).
	BitrateMbps float64 `json:"bitrateMbps"`
	// FrameBytes is the nominal frame size for airtime computation
	// (0 selects 128).
	FrameBytes int `json:"frameBytes"`
	// RobotFailures breaks down this many robots (lowest IDs first) at
	// RobotFailureTime — the resilience extension. The paper's robots
	// never fail.
	RobotFailures int `json:"robotFailures"`
	// RobotFailureTime is when the breakdowns happen (seconds).
	RobotFailureTime float64 `json:"robotFailureTimeS"`
	// ETADispatch switches the centralized manager to workload-aware
	// shortest-ETA dispatch (future-work extension; the paper dispatches
	// to the closest robot regardless of its queue).
	ETADispatch bool `json:"etaDispatch"`
	// Faults, when non-nil, schedules a declarative fault plan: robot
	// breakdowns, message-loss bursts, regional radio blackouts, and a
	// manager crash (robustness extension). The plan replays
	// deterministically for a fixed (Config, Faults, Seed).
	Faults *chaos.FaultPlan `json:"faults,omitempty"`
	// Reliability enables and tunes the repair-reliability protocol:
	// acknowledged, retransmitted failure reports; robot heartbeats and
	// liveness tracking; re-dispatch and manager failover (robustness
	// extension; disabled by default, reproducing the paper's
	// fire-and-forget model).
	Reliability ReliabilityConfig `json:"reliability,omitempty"`
	// Telemetry enables the observability layer: latency histograms and
	// the Prometheus/CSV/Chrome-trace exporters. It arms the flight
	// recorder (Recorder's cadence and chunking apply), whose recording is
	// the layer's time series. The zero value disables it entirely and
	// reproduces the untelemetered simulator's behavior and allocations
	// bit-for-bit.
	Telemetry telemetry.Config `json:"telemetry,omitempty"`
	// Recorder enables the FTDC-style flight recorder: a compact,
	// columnar, delta-encoded binary capture of the simulation's vital
	// signs (backlogs, queue depths, counters, invariant and chaos
	// markers), cheap enough to arm on every run. The recording lands in
	// Results.Recording; decode it with internal/ftdc or cmd/ftdcdump.
	// The zero value disables it entirely and reproduces the unrecorded
	// simulator's behavior and allocations bit-for-bit.
	Recorder ftdc.Config `json:"recorder,omitempty"`
	// Invariants enables the runtime conservation-law checker: kernel
	// clock/free-list audits, failure-lifecycle conservation, robot
	// kinematics, radio unit-disk accounting, reliability-protocol sanity.
	// Violations land in Results.Violations; the zero value disables the
	// layer entirely and reproduces the unchecked simulator's behavior and
	// allocations bit-for-bit.
	Invariants invariant.Config `json:"invariants,omitempty"`
	// FacilityObjective selects the facility-location family's placement
	// objective: "kmedian" (default) or "kcenter". Ignored by the other
	// algorithms; omitted from JSON when unset so legacy config hashes
	// are unchanged.
	FacilityObjective string `json:"facilityObjective,omitempty"`
	// FacilityPeriodS is the facility re-solve cadence in seconds
	// (default 500).
	FacilityPeriodS float64 `json:"facilityPeriodS,omitempty"`
	// FacilityLedger caps the facility family's failure-site ledger,
	// FIFO-evicted (default 64).
	FacilityLedger int `json:"facilityLedger,omitempty"`
	// Battery, when non-nil, makes energy a live in-sim resource
	// (robustness extension): each robot integrates its power draw against
	// a finite budget, plans dispatches conservatively, detours to the
	// field-center depot to recharge, hands queued tasks back when low,
	// and dies in place at zero charge. Nil disables the layer entirely
	// and reproduces the energy-unaware simulator's behavior and
	// allocations bit-for-bit.
	Battery *BatteryConfig `json:"battery,omitempty"`
}

// BatteryConfig tunes the energy layer. Power values are watts, energy
// joules; zero power-model fields take the Pioneer 3-DX defaults.
type BatteryConfig struct {
	// CapacityJ is the per-robot battery budget in joules (required > 0).
	CapacityJ float64 `json:"capacityJ"`
	// RechargeW is the depot charging power. 0 means no recharging —
	// starvation mode: robots spend their budget and die in place.
	RechargeW float64 `json:"rechargeW,omitempty"`
	// ReserveJ is the safety margin the admission rule keeps on top of
	// the mission estimate (default 5% of CapacityJ when recharging is
	// available; 0 otherwise).
	ReserveJ float64 `json:"reserveJ,omitempty"`
	// IdlePowerW, MotionBaseW, and MotionPerSpeedW override the platform
	// power model (see internal/energy). All three zero selects the
	// Pioneer 3-DX numbers.
	IdlePowerW      float64 `json:"idlePowerW,omitempty"`
	MotionBaseW     float64 `json:"motionBaseW,omitempty"`
	MotionPerSpeedW float64 `json:"motionPerSpeedW,omitempty"`
}

// withDefaults fills unset knobs with the documented defaults.
func (bc BatteryConfig) withDefaults() BatteryConfig {
	if bc.ReserveJ == 0 && bc.RechargeW > 0 {
		bc.ReserveJ = 0.05 * bc.CapacityJ
	}
	if bc.IdlePowerW == 0 && bc.MotionBaseW == 0 && bc.MotionPerSpeedW == 0 {
		m := energy.Pioneer3DX()
		bc.IdlePowerW = m.IdlePowerW
		bc.MotionBaseW = m.MotionBaseW
		bc.MotionPerSpeedW = m.MotionPerSpeedW
	}
	return bc
}

// model returns the platform power model the config describes.
func (bc BatteryConfig) model() energy.Model {
	return energy.Model{
		IdlePowerW:      bc.IdlePowerW,
		MotionBaseW:     bc.MotionBaseW,
		MotionPerSpeedW: bc.MotionPerSpeedW,
	}
}

// ReliabilityConfig tunes the repair-reliability protocol. All durations
// are seconds; zero fields take the documented defaults when Enabled.
type ReliabilityConfig struct {
	// Enabled switches the whole protocol on.
	Enabled bool `json:"enabled,omitempty"`
	// ReportRetryS is the initial report-retransmission backoff (15).
	ReportRetryS float64 `json:"reportRetryS,omitempty"`
	// ReportRetryMaxS caps the exponential backoff (120).
	ReportRetryMaxS float64 `json:"reportRetryMaxS,omitempty"`
	// ReportRetryLimit caps total transmissions of one report; 0 retries
	// until acked or the repair is observed.
	ReportRetryLimit int `json:"reportRetryLimit,omitempty"`
	// HeartbeatS is the robot/manager heartbeat period (30).
	HeartbeatS float64 `json:"heartbeatS,omitempty"`
	// MissedHeartbeats declares a robot or manager dead after this many
	// silent periods (3).
	MissedHeartbeats int `json:"missedHeartbeats,omitempty"`
	// DispatchAckTimeoutS is the dispatcher's initial re-dispatch timeout
	// for unacknowledged repair requests (60).
	DispatchAckTimeoutS float64 `json:"dispatchAckTimeoutS,omitempty"`
	// WatchGraceS delays neighbor-watch reports so the guardian's report
	// usually wins and watchers stay silent (900).
	WatchGraceS float64 `json:"watchGraceS,omitempty"`
}

// withDefaults fills unset knobs with the documented defaults.
func (rc ReliabilityConfig) withDefaults() ReliabilityConfig {
	if !rc.Enabled {
		return rc
	}
	if rc.ReportRetryS <= 0 {
		rc.ReportRetryS = 15
	}
	if rc.ReportRetryMaxS <= 0 {
		rc.ReportRetryMaxS = 120
	}
	if rc.HeartbeatS <= 0 {
		rc.HeartbeatS = 30
	}
	if rc.MissedHeartbeats <= 0 {
		rc.MissedHeartbeats = 3
	}
	if rc.DispatchAckTimeoutS <= 0 {
		rc.DispatchAckTimeoutS = 60
	}
	if rc.WatchGraceS <= 0 {
		rc.WatchGraceS = 900
	}
	return rc
}

// DefaultConfig returns the paper's experimental parameters (§4.1) with
// the dynamic algorithm and 4 robots.
func DefaultConfig() Config {
	return Config{
		Algorithm:        core.Dynamic,
		Robots:           4,
		AreaPerRobotSide: 200,
		SensorsPerRobot:  50,
		SensorRange:      63,
		RobotRange:       250,
		RobotSpeed:       1,
		UpdateThreshold:  20,
		BeaconPeriod:     10,
		MissedBeacons:    3,
		MeanLifetime:     16000,
		SimTime:          64000,
		Seed:             1,
		Partition:        geom.PartitionSquare,
	}
}

// Validate reports the first invalid field of the configuration.
func (c Config) Validate() error {
	if _, err := algorithm.Lookup(string(c.Algorithm)); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	facility := algorithm.FacilityParams{
		Objective: c.FacilityObjective,
		Period:    c.FacilityPeriodS,
		Ledger:    c.FacilityLedger,
	}
	if err := facility.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	for _, f := range c.floatFields() {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("scenario: %s = %v not finite", f.name, f.v)
		}
	}
	switch {
	case c.Robots <= 0:
		return fmt.Errorf("scenario: robots = %d, need ≥ 1", c.Robots)
	case c.AreaPerRobotSide <= 0:
		return fmt.Errorf("scenario: area side %v not positive", c.AreaPerRobotSide)
	case c.SensorsPerRobot <= 0:
		return fmt.Errorf("scenario: sensors per robot %d not positive", c.SensorsPerRobot)
	case c.SensorRange <= 0 || c.RobotRange <= 0:
		return fmt.Errorf("scenario: ranges must be positive")
	case c.RobotSpeed <= 0:
		return fmt.Errorf("scenario: robot speed %v not positive", c.RobotSpeed)
	case c.UpdateThreshold <= 0:
		return fmt.Errorf("scenario: update threshold %v not positive", c.UpdateThreshold)
	case c.BeaconPeriod <= 0:
		return fmt.Errorf("scenario: beacon period %v not positive", c.BeaconPeriod)
	case c.MissedBeacons <= 0:
		return fmt.Errorf("scenario: missed beacons %d not positive", c.MissedBeacons)
	case c.MeanLifetime <= 0:
		return fmt.Errorf("scenario: mean lifetime %v not positive", c.MeanLifetime)
	case c.SimTime <= 0:
		return fmt.Errorf("scenario: sim time %v not positive", c.SimTime)
	case c.LossP < 0 || c.LossP >= 1:
		return fmt.Errorf("scenario: loss probability %v outside [0,1)", c.LossP)
	case c.Reliability.ReportRetryS < 0 || c.Reliability.HeartbeatS < 0 ||
		c.Reliability.DispatchAckTimeoutS < 0:
		return fmt.Errorf("scenario: reliability durations must be non-negative")
	}
	if b := c.Battery; b != nil {
		switch {
		case b.CapacityJ <= 0:
			return fmt.Errorf("scenario: battery capacity %v not positive", b.CapacityJ)
		case b.RechargeW < 0:
			return fmt.Errorf("scenario: recharge power %v negative", b.RechargeW)
		case b.ReserveJ < 0:
			return fmt.Errorf("scenario: battery reserve %v negative", b.ReserveJ)
		case b.IdlePowerW < 0 || b.MotionBaseW < 0 || b.MotionPerSpeedW < 0:
			return fmt.Errorf("scenario: battery power-model terms must be non-negative")
		}
	}
	if err := c.Faults.Validate(c.Robots); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := c.Recorder.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := c.Invariants.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// floatField is one named float-valued config knob.
type floatField struct {
	name string
	v    float64
}

// floatFields lists every float knob of the config, its reliability
// settings and, when present, its battery. Validate screens them for NaN
// and ±Inf first: NaN fails every comparison, so it would pass each range
// check below.
func (c Config) floatFields() []floatField {
	r := c.Reliability
	fs := []floatField{
		{"AreaPerRobotSide", c.AreaPerRobotSide},
		{"SensorRange", c.SensorRange},
		{"RobotRange", c.RobotRange},
		{"RobotSpeed", c.RobotSpeed},
		{"UpdateThreshold", c.UpdateThreshold},
		{"BeaconPeriod", c.BeaconPeriod},
		{"MeanLifetime", c.MeanLifetime},
		{"SimTime", c.SimTime},
		{"ServiceTime", c.ServiceTime},
		{"LossP", c.LossP},
		{"LifetimeShape", c.LifetimeShape},
		{"SensingRange", c.SensingRange},
		{"CoverageSamplePeriod", c.CoverageSamplePeriod},
		{"BitrateMbps", c.BitrateMbps},
		{"RobotFailureTime", c.RobotFailureTime},
		{"FacilityPeriodS", c.FacilityPeriodS},
		{"Reliability.ReportRetryS", r.ReportRetryS},
		{"Reliability.ReportRetryMaxS", r.ReportRetryMaxS},
		{"Reliability.HeartbeatS", r.HeartbeatS},
		{"Reliability.DispatchAckTimeoutS", r.DispatchAckTimeoutS},
		{"Reliability.WatchGraceS", r.WatchGraceS},
	}
	if b := c.Battery; b != nil {
		fs = append(fs,
			floatField{"Battery.CapacityJ", b.CapacityJ},
			floatField{"Battery.RechargeW", b.RechargeW},
			floatField{"Battery.ReserveJ", b.ReserveJ},
			floatField{"Battery.IdlePowerW", b.IdlePowerW},
			floatField{"Battery.MotionBaseW", b.MotionBaseW},
			floatField{"Battery.MotionPerSpeedW", b.MotionPerSpeedW},
		)
	}
	return fs
}

// FieldSide returns the side of the (square) field in meters.
func (c Config) FieldSide() float64 {
	return c.AreaPerRobotSide * math.Sqrt(float64(c.Robots))
}

// NumSensors returns the initial sensor population.
func (c Config) NumSensors() int { return c.SensorsPerRobot * c.Robots }

// Results aggregates one run's outcomes.
type Results struct {
	Config Config `json:"config"`

	// Failure pipeline counts.
	FailuresInjected  int `json:"failuresInjected"`
	ReportsSent       int `json:"reportsSent"`
	ReportsDelivered  int `json:"reportsDelivered"`
	RequestsIssued    int `json:"requestsIssued"`
	RequestsDelivered int `json:"requestsDelivered"`
	Repairs           int `json:"repairs"`

	// Figure 2: motion overhead.
	AvgTravelPerFailure float64 `json:"avgTravelPerFailureM"`
	TotalTravel         float64 `json:"totalTravelM"`

	// Figure 3: messaging hops.
	AvgReportHops  float64 `json:"avgReportHops"`
	AvgRequestHops float64 `json:"avgRequestHops"`

	// Figure 4: location-update transmissions per failure handled.
	LocUpdateTx           uint64  `json:"locUpdateTx"`
	LocUpdateTxPerFailure float64 `json:"locUpdateTxPerFailure"`

	// Additional series.
	AvgRepairDelay float64 `json:"avgRepairDelayS"`
	RepairDelayP95 float64 `json:"repairDelayP95S"`

	// Coverage (populated only when Config.SensingRange > 0).
	MeanCoverage float64 `json:"meanCoverage"`
	MinCoverage  float64 `json:"minCoverage"`

	// Degradation metrics (robustness extension; the counters below are
	// all zero in the paper's fault-free model).
	//
	// UnrepairedFailures counts deployment sites with no live sensor at
	// the horizon: a failure happened there and no replacement covers it.
	// Failures injected shortly before the horizon are included (their
	// repair is still in flight), so it is small but nonzero even in
	// fault-free runs.
	UnrepairedFailures int `json:"unrepairedFailures"`
	StrandedTasks      int `json:"strandedTasks"`
	RequeuedTasks      int `json:"requeuedTasks"`
	ReportRetx         int `json:"reportRetx"`
	ReportsAbandoned   int `json:"reportsAbandoned"`
	Redispatches       int `json:"redispatches"`
	ManagerTakeovers   int `json:"managerTakeovers"`
	// DuplicateRepairs counts robot visits to a site another robot had
	// already repaired (duplicate reports crossing dispatcher boundaries
	// under faults). The trip is spent; no node is replaced.
	DuplicateRepairs int `json:"duplicateRepairs"`
	// MeanFaultRecovery averages the fault_recovery_s series: takeover
	// latency after a manager crash and drain latency of re-queued tasks.
	MeanFaultRecovery float64 `json:"meanFaultRecoveryS"`
	// Hostile-channel counters (all zero unless the fault plan has
	// corruption windows). CorruptedFrames counts receptions whose bytes
	// the injector mutated (duplicates and replays included);
	// DroppedMalformed counts receptions the defensive decoder discarded
	// (checksum/structure failures and misaddressed replays);
	// ReplayRejected counts stale robot updates the strict-sequence guards
	// refused to act on, summed over manager, robots, and sensors.
	CorruptedFrames  uint64 `json:"corruptedFrames,omitempty"`
	DroppedMalformed uint64 `json:"droppedMalformed,omitempty"`
	ReplayRejected   uint64 `json:"replayRejected,omitempty"`

	// Energy-layer outcomes (all zero/empty unless Config.Battery is set).
	// RobotDeaths counts robots whose battery hit zero mid-field;
	// Recharges counts completed depot charging sessions; TaskHandoffs
	// counts tasks a low-battery robot handed back for reassignment;
	// EnergySpentJ sums every robot's debited joules.
	RobotDeaths  int          `json:"robotDeaths,omitempty"`
	Recharges    int          `json:"recharges,omitempty"`
	TaskHandoffs int          `json:"taskHandoffs,omitempty"`
	EnergySpentJ float64      `json:"energySpentJ,omitempty"`
	RobotEnergy  []RobotPower `json:"robotEnergy,omitempty"`

	// Registry holds the full per-category accounting.
	Registry *metrics.Registry `json:"-"`

	// Telemetry holds the run's collector — histograms and exporters
	// over Recording — when Config.Telemetry is enabled; nil otherwise.
	Telemetry *telemetry.Collector `json:"-"`

	// Recording holds the run's flight recorder when Config.Recorder or
	// Config.Telemetry is enabled; nil otherwise. Recording.Bytes()
	// renders the capture; Recording.WriteFile banks it.
	Recording *ftdc.Recorder `json:"-"`

	// Violations lists the conservation-law breaches the invariant layer
	// detected, in detection order; empty on clean runs and always nil
	// when Config.Invariants is disabled.
	Violations []invariant.Violation `json:"violations,omitempty"`
}

// RobotPower is one robot's energy ledger at the horizon (battery layer).
type RobotPower struct {
	Robot      int     `json:"robot"`
	SpentJ     float64 `json:"spentJ"`
	RemainingJ float64 `json:"remainingJ"`
	RechargedJ float64 `json:"rechargedJ,omitempty"`
	Recharges  int     `json:"recharges,omitempty"`
	Handoffs   int     `json:"handoffs,omitempty"`
	Died       bool    `json:"died,omitempty"`
	DiedAtS    float64 `json:"diedAtS,omitempty"`
}

// ReportDeliveryRatio returns delivered/sent failure reports (1 when no
// reports were sent).
func (r Results) ReportDeliveryRatio() float64 {
	if r.ReportsSent == 0 {
		return 1
	}
	return float64(r.ReportsDelivered) / float64(r.ReportsSent)
}

// RepairRatio returns repairs per injected failure.
func (r Results) RepairRatio() float64 {
	if r.FailuresInjected == 0 {
		return 1
	}
	return float64(r.Repairs) / float64(r.FailuresInjected)
}

// Summary renders the headline numbers of a run.
func (r Results) Summary() string {
	return fmt.Sprintf(
		"alg=%-11s robots=%-2d failures=%d reports=%d/%d repairs=%d "+
			"travel/fail=%.1fm reportHops=%.2f requestHops=%.2f updateTx/fail=%.1f",
		r.Config.Algorithm, r.Config.Robots,
		r.FailuresInjected, r.ReportsDelivered, r.ReportsSent, r.Repairs,
		r.AvgTravelPerFailure, r.AvgReportHops, r.AvgRequestHops,
		r.LocUpdateTxPerFailure)
}

// lifetimeModel builds the configured mortality model.
func (c Config) lifetimeModel(src *rng.Source) failure.LifetimeModel {
	if c.LifetimeShape > 0 && c.LifetimeShape != 1 {
		// Match the configured mean: mean of Weibull(λ,k) is λ·Γ(1+1/k).
		scale := c.MeanLifetime / math.Gamma(1+1/c.LifetimeShape)
		return &failure.Weibull{Scale: scale, Shape: c.LifetimeShape, Rand: src}
	}
	return &failure.Exponential{Mean: c.MeanLifetime, Rand: src}
}

// lossModel builds the configured medium loss model (nil when lossless).
func (c Config) lossModel(src *rng.Source) radio.LossModel {
	if c.LossP <= 0 {
		return nil
	}
	return &radio.BernoulliLoss{P: c.LossP, Rand: src}
}

// contentionModel builds the optional MAC collision model.
func (c Config) contentionModel(src *rng.Source) radio.ContentionConfig {
	if !c.MACContention {
		return radio.ContentionConfig{}
	}
	bitrate := c.BitrateMbps
	if bitrate <= 0 {
		bitrate = 11 // the paper's nominal 802.11 rate
	}
	bytes := c.FrameBytes
	if bytes <= 0 {
		bytes = 128
	}
	airtime := sim.Duration(float64(bytes*8) / (bitrate * 1e6))
	return radio.ContentionConfig{
		Airtime: airtime,
		// A wide random-assessment-delay window: flood relays fire
		// synchronously on reception, and hidden terminals make carrier
		// sensing insufficient for a 10+-relay burst. ~100 ms of jitter
		// (standard broadcast-storm mitigation) keeps the collision rate
		// at the per-mille level while staying far below the 10 s beacon
		// period.
		MaxBackoff: airtime * 1024,
		Rand:       src,
	}
}

// initDelay is when robots and the manager announce themselves: after all
// sensor location announcements (jittered within the first second).
const initDelay sim.Duration = 2

// settleDelay is when sensors pick their guardians: after the robot and
// manager announcements.
const settleDelay sim.Duration = 5
