package main

import (
	"errors"
	"fmt"
	"math"

	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/ftdc"
	"roborepair/internal/invariant"
	"roborepair/internal/scenario"
	"roborepair/internal/telemetry"
)

// defaultSeed is the seed whose results fingerprints are pinned below.
const defaultSeed = 1

// A workload is one simulator configuration, generated from a seed and a
// horizon. Every workload runs 16 robots at the paper's sensor density, so
// the workloads differ in the layers they exercise, not in scale, except
// megafield-100k, which exists to vary scale.
type workload struct {
	name string
	// horizon is the simulated seconds of one run, chosen so that several
	// runs fit in one measurement budget.
	horizon float64
	// fields is the number of fields, the first runs of a timed
	// invocation, that the allocation and heap metrics cover. They do not
	// depend on how many more runs the budget allows on a given host.
	fields int
	// hostExponent is the power of the host's slowdown, measured by the
	// reference computation, that the time metrics are scaled by
	// (calibrate.go).
	hostExponent float64
	config       func(seed int64, horizon float64) (scenario.Config, error)
	// check rejects results that the configuration cannot produce when
	// the simulator is correct.
	check func(scenario.Results) error
}

var workloads = []workload{
	{
		// The paper's largest cell (Figs. 2-4): location-update floods
		// make radio delivery and sensor receive handling dominate.
		name:         "paper-dynamic16",
		horizon:      2000,
		fields:       16,
		hostExponent: cacheBoundExponent,
		config:       paper16,
		check:        repaired,
	},
	{
		// paper-dynamic16 plus every observer layer; the event stream is
		// nearly the same, so the difference is the observers' cost.
		name:         "observed-dynamic16",
		horizon:      2000,
		fields:       16,
		hostExponent: cacheBoundExponent,
		config:       observed16,
		check:        observedClean,
	},
	{
		// Unicast routing to one manager over a contended, lossy,
		// corrupting channel with a manager crash: the wire codec, the
		// contention model and the reliability protocol all run.
		name:         "hostile-central16",
		horizon:      500,
		fields:       12,
		hostExponent: cacheBoundExponent,
		config:       hostile16,
		check:        hostileExercised,
	},
	{
		// 100k sensors: the only workload where world construction and a
		// cache-bound working set are visible.
		name:         "megafield-100k",
		horizon:      3,
		fields:       4,
		hostExponent: memoryBoundExponent,
		config:       megafield,
		check:        injected,
	},
}

// pinned maps each workload to its results fingerprint at defaultSeed and
// its full horizon. A mismatch means the simulated outcome changed.
var pinned = map[string]string{
	"paper-dynamic16":    "4b7c7c36878fdc2a",
	"observed-dynamic16": "b6a57dd6b4eeb390",
	"hostile-central16":  "40c33b26d66b89f5",
	"megafield-100k":     "78c0a8eeb988ce25",
}

func lookup(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func paper16(seed int64, horizon float64) (scenario.Config, error) {
	cfg := scenario.DefaultConfig()
	cfg.Robots = 16
	cfg.SimTime = horizon
	cfg.Seed = seed
	return cfg, nil
}

func observed16(seed int64, horizon float64) (scenario.Config, error) {
	cfg, _ := paper16(seed, horizon)
	cfg.Telemetry = telemetry.Config{Enabled: true}
	cfg.Recorder = ftdc.Config{Enabled: true}
	cfg.Invariants = invariant.Config{Enabled: true}
	cfg.TraceCapacity = 4096
	// Large enough that no robot ever detours to recharge or dies, so the
	// energy layer only accounts.
	cfg.Battery = &scenario.BatteryConfig{CapacityJ: 1e9}
	return cfg, nil
}

func hostile16(seed int64, horizon float64) (scenario.Config, error) {
	cfg, _ := paper16(seed, horizon)
	cfg.Algorithm = core.Centralized
	cfg.Reliability.Enabled = true
	cfg.MACContention = true
	// Failures often enough to keep the robots busy: their travel, and the
	// location updates it sends, then vary little from field to field.
	cfg.MeanLifetime = 2 * horizon
	// Fault windows are fractions of the horizon, so shorter runs keep
	// every fault inside them.
	h := horizon
	plan, err := chaos.Parse(fmt.Sprintf("burst@%g-%g=0.3;mgr@%g;corrupt@%g-%g=0.05",
		h/8, h/4, h/4, h/2, 3*h/4))
	if err != nil {
		return cfg, err
	}
	cfg.Faults = plan
	return cfg, nil
}

func megafield(seed int64, horizon float64) (scenario.Config, error) {
	cfg, _ := paper16(seed, horizon)
	cfg.SensorsPerRobot = 100_000 / cfg.Robots
	cfg.AreaPerRobotSide = 200 * math.Sqrt(float64(cfg.SensorsPerRobot)/50)
	return cfg, nil
}

func injected(res scenario.Results) error {
	if res.FailuresInjected == 0 {
		return errors.New("no failures injected")
	}
	return nil
}

func repaired(res scenario.Results) error {
	if err := injected(res); err != nil {
		return err
	}
	if res.Repairs == 0 {
		return errors.New("no repairs")
	}
	return nil
}

func observedClean(res scenario.Results) error {
	if err := repaired(res); err != nil {
		return err
	}
	if n := len(res.Violations); n > 0 {
		return fmt.Errorf("%d invariant violations, first %+v", n, res.Violations[0])
	}
	if res.RobotDeaths+res.Recharges+res.TaskHandoffs > 0 {
		return fmt.Errorf("battery acted: %d deaths, %d recharges, %d handoffs",
			res.RobotDeaths, res.Recharges, res.TaskHandoffs)
	}
	return nil
}

func hostileExercised(res scenario.Results) error {
	if err := repaired(res); err != nil {
		return err
	}
	if res.ManagerTakeovers == 0 {
		return errors.New("manager crash without a takeover")
	}
	if res.CorruptedFrames == 0 {
		return errors.New("corruption window corrupted no frame")
	}
	return nil
}
