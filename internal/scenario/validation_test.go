package scenario

import (
	"math"
	"testing"

	"roborepair/internal/analysis"
	"roborepair/internal/core"
)

// These tests cross-validate the simulator against the closed-form models
// in internal/analysis. Tolerances are wide enough to absorb model error
// (boundary effects, queueing correlations) but tight enough to catch
// wiring mistakes of an order of magnitude — the class of bug that
// silently invalidates a reproduction.

func TestValidationFailureCountMatchesRenewalTheory(t *testing.T) {
	cfg := quickConfig(core.Dynamic, 4)
	cfg.SimTime = 16000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.ExpectedFailures(cfg.NumSensors(), cfg.MeanLifetime, cfg.SimTime)
	got := float64(res.FailuresInjected)
	if math.Abs(got-want)/want > 0.20 {
		t.Fatalf("failures %v vs renewal expectation %v (>20%% off)", got, want)
	}
}

func TestValidationDynamicTravelMatchesNearestRobotModel(t *testing.T) {
	cfg := quickConfig(core.Dynamic, 9)
	cfg.SimTime = 16000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.ExpectedNearestOfK(cfg.FieldSide(), cfg.Robots) // = 100 m
	got := res.AvgTravelPerFailure
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("dynamic travel %v vs nearest-robot model %v (>25%% off)", got, want)
	}
}

func TestValidationFixedTravelMatchesPairDistanceModel(t *testing.T) {
	cfg := quickConfig(core.Fixed, 9)
	cfg.SimTime = 16000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed: robot and failure are ≈ independent uniforms in one subarea.
	want := analysis.ExpectedPairDist(cfg.AreaPerRobotSide)
	got := res.AvgTravelPerFailure
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("fixed travel %v vs pair-distance model %v (>25%% off)", got, want)
	}
}

func TestValidationCentralizedReportHops(t *testing.T) {
	cfg := quickConfig(core.Centralized, 9)
	cfg.SimTime = 16000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reports travel from a uniform failure site to the center over 63 m
	// sensor hops.
	dist := analysis.ExpectedDistToCenter(cfg.FieldSide())
	want := analysis.ExpectedHops(dist, cfg.SensorRange, cfg.SensorRange)
	got := res.AvgReportHops
	if math.Abs(got-want)/want > 0.35 {
		t.Fatalf("centralized report hops %v vs model %v (>35%% off)", got, want)
	}
}

func TestValidationDistributedReportHops(t *testing.T) {
	cfg := quickConfig(core.Dynamic, 9)
	cfg.SimTime = 16000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §4.3.2: report distance ≈ travel distance (≈100 m) over 63 m hops,
	// "stable at about 2".
	want := analysis.ExpectedHops(100, cfg.SensorRange, cfg.SensorRange)
	got := res.AvgReportHops
	if math.Abs(got-want) > 1 {
		t.Fatalf("distributed report hops %v vs model %v (off by >1)", got, want)
	}
}

func TestValidationRepairDelayWithinQueueModel(t *testing.T) {
	cfg := quickConfig(core.Dynamic, 9)
	cfg.SimTime = 16000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per-robot arrival rate and service model.
	lambda := float64(res.Repairs) / cfg.SimTime / float64(cfg.Robots)
	meanService := res.AvgTravelPerFailure / cfg.RobotSpeed
	// Service times are roughly Rayleigh-like: Var ≈ (0.5·mean)².
	serviceVar := 0.25 * meanService * meanService
	detection := cfg.BeaconPeriod * float64(cfg.MissedBeacons) / 2
	// Mean failure→replacement delay of one robot's M/G/1 repair queue:
	// detection (half the guardian window on average) + queue wait + own
	// travel.
	want := detection + analysis.MG1Wait(lambda, meanService, serviceVar) + meanService
	got := res.AvgRepairDelay
	// Queueing models of correlated arrivals are rough: factor-2 band.
	if got < want/2 || got > want*2 {
		t.Fatalf("repair delay %v outside factor-2 band of M/G/1 model %v", got, want)
	}
}
