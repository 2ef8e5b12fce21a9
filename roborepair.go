// Package roborepair simulates sensor-replacement in large static
// wireless sensor networks maintained by a small team of mobile robots,
// reproducing Mei, Xian, Das, Hu and Lu, "Replacing Failed Sensor Nodes by
// Mobile Robots" (ICDCS Workshops 2006).
//
// Sensors guard each other with periodic beacons; when a guardian detects
// a failed guardee it reports the failure over geographic routing to a
// manager, which dispatches a maintenance robot to replace the node. The
// package implements the paper's three coordination algorithms —
// Centralized, Fixed (static subareas), and Dynamic (implicit Voronoi
// cells) — on top of a from-scratch packet-level wireless simulation,
// plus a facility-location family (Facility) that parks idle robots at
// k-median/k-center facilities solved over recent failure sites.
// Algorithms are pluggable: see internal/algorithm and Algorithms().
//
// Quickstart:
//
//	cfg := roborepair.DefaultConfig()
//	cfg.Algorithm = roborepair.Dynamic
//	cfg.Robots = 9
//	res, err := roborepair.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Summary())
package roborepair

import (
	"io"

	"roborepair/internal/algorithm"
	"roborepair/internal/chaos"
	"roborepair/internal/checkpoint"
	"roborepair/internal/core"
	"roborepair/internal/figures"
	"roborepair/internal/ftdc"
	"roborepair/internal/geom"
	"roborepair/internal/invariant"
	"roborepair/internal/runner"
	"roborepair/internal/scenario"
	"roborepair/internal/telemetry"
)

// Re-exported simulation types. Config parameterizes a run; Results
// carries its outcomes; World is a built simulation ready to run (use it
// when you need access to the sensors/robots, e.g. to inject bursts).
type (
	// Config parameterizes one simulation run.
	Config = scenario.Config
	// Results aggregates one run's outcomes.
	Results = scenario.Results
	// World is a fully wired simulation.
	World = scenario.World
	// Algorithm selects a coordination algorithm.
	Algorithm = core.Algorithm
	// PartitionKind selects the fixed algorithm's subarea shape.
	PartitionKind = geom.PartitionKind
	// FaultPlan is a declarative, seeded schedule of injected faults —
	// robot breakdowns, loss bursts, regional blackouts, a manager crash.
	// Assign one to Config.Faults; nil injects nothing.
	FaultPlan = chaos.FaultPlan
	// ReliabilityConfig enables and tunes the repair-reliability
	// protocol via Config.Reliability.
	ReliabilityConfig = scenario.ReliabilityConfig
	// BatteryConfig makes energy a live in-sim resource via Config.Battery:
	// finite per-robot budgets, conservative dispatch admission, depot
	// recharge detours with task handoff, and death-in-place at zero
	// charge. Nil disables the layer with zero overhead.
	BatteryConfig = scenario.BatteryConfig
	// TelemetryConfig enables the observability layer — histograms and
	// exporters over the flight recording, which it arms — via
	// Config.Telemetry. The zero value disables it with zero overhead.
	TelemetryConfig = telemetry.Config
	// TelemetryCollector carries one run's telemetry (Results.Telemetry).
	TelemetryCollector = telemetry.Collector
	// RecorderConfig enables and tunes the always-on flight recorder — a
	// compact, delta-encoded binary time series (FTDC-style) cheap enough
	// to arm on every run — via Config.Recorder. The zero value disables
	// it with zero overhead.
	RecorderConfig = ftdc.Config
	// Recorder carries one run's flight recording (Results.Recording);
	// decode its Bytes with DecodeRecording or the ftdcdump CLI.
	Recorder = ftdc.Recorder
	// Recording is a decoded flight-recorder capture.
	Recording = ftdc.Recording
	// InvariantConfig enables the runtime conservation-law checker via
	// Config.Invariants. The zero value disables it with zero overhead;
	// violations surface in Results.Violations.
	InvariantConfig = invariant.Config
	// InvariantViolation is one detected conservation-law breach, with the
	// simulated time and entity it was observed at.
	InvariantViolation = invariant.Violation
	// Snapshot is a versioned, CRC-guarded capture of the full simulator
	// state at one instant, produced by World.Snapshot or
	// World.RunCheckpointed and turned back into a running world by
	// Restore.
	Snapshot = checkpoint.Snapshot
	// CheckpointOptions configures World.RunCheckpointed: how often to
	// snapshot and what to do with each snapshot.
	CheckpointOptions = scenario.CheckpointOptions
	// RestoreOptions tunes RestoreOpts; TailTraceCapacity attaches a fresh
	// trace ring to the restored world so the continuation can be replayed
	// with full event logging.
	RestoreOptions = scenario.RestoreOptions
)

// DecodeRecording decodes a flight-recorder capture — the Bytes of a
// Results.Recording, or a .ftdc file's contents — rejecting corrupt or
// non-canonical input.
func DecodeRecording(b []byte) (*Recording, error) { return ftdc.Decode(b) }

// ReadRecording loads and decodes a .ftdc recording file written by
// Recorder.WriteFile or the -ftdc CLI flags.
func ReadRecording(path string) (*Recording, error) { return ftdc.ReadFile(path) }

// ErrReplayDiverged reports that a snapshot failed Restore's byte-level
// verification: the deterministic replay of its embedded configuration
// did not reproduce the snapshotted state, so the file is corrupt,
// tampered with, or from an incompatible build.
var ErrReplayDiverged = scenario.ErrReplayDiverged

// Restore rebuilds a running world from a snapshot by deterministic
// fast-forward replay, verifying byte-for-byte that the replayed state
// matches the snapshot before returning. The continuation is
// bit-identical to the uninterrupted run.
func Restore(snap *Snapshot) (*World, error) { return scenario.Restore(snap) }

// RestoreOpts is Restore with options (e.g. a tail trace for
// replay-from-snapshot debugging).
func RestoreOpts(snap *Snapshot, opts RestoreOptions) (*World, error) {
	return scenario.RestoreOpts(snap, opts)
}

// EncodeSnapshot renders a snapshot in the versioned, CRC-guarded binary
// format, for callers that bank snapshots somewhere other than a file.
func EncodeSnapshot(s *Snapshot) ([]byte, error) { return checkpoint.Encode(s) }

// DecodeSnapshot parses and CRC-checks an EncodeSnapshot blob.
func DecodeSnapshot(b []byte) (*Snapshot, error) { return checkpoint.Decode(b) }

// ReadSnapshot loads and CRC-checks a snapshot file written by
// WriteSnapshot.
func ReadSnapshot(path string) (*Snapshot, error) { return checkpoint.ReadFile(path) }

// WriteSnapshot atomically writes a snapshot to path (temp file, sync,
// rename), so a crash mid-write never clobbers the previous snapshot.
func WriteSnapshot(path string, s *Snapshot) error { return checkpoint.WriteFile(path, s) }

// ParseFaultPlan builds a fault plan from the compact semicolon-separated
// syntax of the -fault CLI flags:
//
//	robot@T=IDX              robot IDX breaks down at time T
//	burst@T1-T2=P            loss probability P during [T1,T2)
//	blackout@T1-T2=X,Y,R     radius-R blackout around (X,Y) during [T1,T2)
//	mgr@T                    central manager crashes at time T
//	corrupt@T1-T2=P[,mode]   each reception's bytes corrupted with
//	                         probability P during [T1,T2); mode is one of
//	                         bitflip, truncate, garbage, duplicate, replay,
//	                         or mix (the default)
//	drain@T1-T2=F[,IDX]      parasitic battery drain worth fraction F of
//	                         one pack over [T1,T2), on robot IDX (omitted:
//	                         the whole fleet); inert unless Config.Battery
//	                         is set
//
// An empty spec yields a nil plan (no faults).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return chaos.Parse(spec) }

// The registered coordination algorithms: the paper's three plus the
// facility-location family. Algorithms() enumerates the full registry.
const (
	// Centralized is the central-manager algorithm (§3.1).
	Centralized = core.Centralized
	// Fixed is the fixed distributed manager algorithm (§3.2).
	Fixed = core.Fixed
	// Dynamic is the dynamic distributed manager algorithm (§3.3).
	Dynamic = core.Dynamic
	// Facility is the facility-location family: centralized dispatch plus
	// periodic k-median/k-center re-placement of idle robots over recent
	// failure sites (tune via Config.FacilityObjective/PeriodS/Ledger).
	Facility = algorithm.Facility
)

// Subarea partition shapes for the Fixed algorithm.
const (
	// PartitionSquare tiles the field with equal squares (paper default).
	PartitionSquare = geom.PartitionSquare
	// PartitionHex uses a hexagonal lattice (the §4.3.1 ablation).
	PartitionHex = geom.PartitionHex
)

// PaperRobotCounts are the robot counts of the paper's experiments.
var PaperRobotCounts = figures.PaperRobotCounts

// DefaultConfig returns the paper's §4.1 experimental parameters.
func DefaultConfig() Config { return scenario.DefaultConfig() }

// Run builds a world from cfg, simulates it to the horizon, and returns
// the collected results.
func Run(cfg Config) (Results, error) { return scenario.Run(cfg) }

// NewWorld builds a simulation without running it, for callers that need
// to inspect or perturb the world (burst failures, custom metrics).
func NewWorld(cfg Config) (*World, error) { return scenario.New(cfg) }

// RunMany executes every configuration on a pool of procs worker
// goroutines (procs ≤ 0 selects GOMAXPROCS) and returns the results in
// input order. Runs share no state, so each result is bit-identical to a
// serial Run of the same configuration; failures do not stop the batch,
// and all failures (annotated with their job index, in input order) are
// aggregated into the returned error with errors.Join.
func RunMany(cfgs []Config, procs int) ([]Results, error) {
	jobs := make([]runner.Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = runner.Job{Config: cfg}
	}
	rs, _, err := runner.Run(jobs, runner.Options{Procs: procs})
	out := make([]Results, len(rs))
	for i := range rs {
		out[i] = rs[i].Res
	}
	return out, err
}

// ParseAlgorithm converts a registered algorithm name ("centralized",
// "fixed", "dynamic", "facility", ...) into an Algorithm; unknown names
// fail with the full registered list.
func ParseAlgorithm(s string) (Algorithm, error) { return algorithm.Parse(s) }

// Algorithms enumerates every registered coordination algorithm in
// deterministic (sorted) order — the list sweeps, figures, and invariant
// grids iterate.
func Algorithms() []Algorithm { return algorithm.All() }

// WritePrometheus renders a run's full accounting — the metrics registry
// plus, when telemetry was enabled, the collector's histograms and the
// recording's final sample as gauges — in the Prometheus text exposition
// format.
func WritePrometheus(w io.Writer, res Results) error {
	return telemetry.WritePrometheus(w, res.Registry, res.Telemetry)
}

// WriteChromeTrace renders a traced world's causal log as Chrome
// trace_event JSON (one lane per robot; open in chrome://tracing or
// ui.perfetto.dev). The world must have been built with
// Config.TraceCapacity != 0 and run to completion; enabling
// Config.Telemetry additionally draws the recorded columns as counter
// tracks.
func WriteChromeTrace(w io.Writer, world *World) error {
	opt := telemetry.ChromeOptions{Collector: world.Telemetry}
	if world.Manager != nil {
		opt.ManagerID = world.Manager.ID()
	}
	return telemetry.WriteChromeTrace(w, world.Trace, opt)
}
