package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"roborepair/internal/checkpoint"
	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

// Checkpoint surface.
//
// Scheduler events hold Go closures, so a snapshot cannot capture the event
// queue's behavior directly. What it captures instead is every piece of
// *data* state — kernel stamps, RNG positions, per-agent fields, radio and
// chaos state, metric and telemetry rings — plus the full configuration.
// Restore rebuilds the closures by constructing a fresh world from the
// embedded config and deterministically replaying it to the snapshot time
// ("dark fast-forward"), then byte-verifies every section of a re-taken
// snapshot against the stored one. Any config drift, nondeterminism, or
// undetected corruption shows up as a named section mismatch instead of a
// silently divergent continuation.

// ErrReplayDiverged reports that a restored world, replayed to the snapshot
// time, did not reproduce the snapshot byte for byte. It wraps the section
// name in the error text; match with errors.Is.
var ErrReplayDiverged = errors.New("scenario: restore replay diverged from snapshot")

// Snapshot captures the world's complete dynamic state at the current
// simulation time. The world is not perturbed and can keep running.
func (w *World) Snapshot() (*checkpoint.Snapshot, error) {
	cfgJSON, err := json.Marshal(w.Cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: snapshot: marshal config: %w", err)
	}
	snap := &checkpoint.Snapshot{
		Seed:       w.Cfg.Seed,
		T:          float64(w.Sched.Now()),
		ConfigJSON: cfgJSON,
	}
	add := func(id checkpoint.SectionID, payload []byte) {
		snap.Sections = append(snap.Sections, checkpoint.Section{ID: id, Payload: payload})
	}
	add(checkpoint.SecKernel, w.kernelState(nil))
	add(checkpoint.SecRNG, w.rngState(nil))
	add(checkpoint.SecCounters, w.counterState(nil))
	add(checkpoint.SecSensors, w.sensorState(nil))
	add(checkpoint.SecRobots, w.robotState(nil))
	add(checkpoint.SecManager, w.managerState(nil))
	add(checkpoint.SecRadio, w.Medium.AppendState(nil))
	add(checkpoint.SecChaos, w.corrupter.AppendState(nil))
	add(checkpoint.SecMetrics, w.Registry.AppendState(nil))
	add(checkpoint.SecTelemetry, w.Telemetry.AppendState(nil))
	add(checkpoint.SecFTDC, w.Recorder.AppendState(nil))
	return snap, nil
}

// kernelState serializes the scheduler's clock, counters, and the (at, seq)
// stamp of every pending event in total order.
func (w *World) kernelState(b []byte) []byte {
	st := w.Sched.SnapshotState()
	b = checkpoint.AppendF64(b, float64(st.Now))
	b = checkpoint.AppendU64(b, st.Seq)
	b = checkpoint.AppendU64(b, st.Fired)
	b = checkpoint.AppendI64(b, int64(st.HighWater))
	b = checkpoint.AppendU32(b, uint32(len(st.Pending)))
	for _, ev := range st.Pending {
		b = checkpoint.AppendF64(b, float64(ev.At))
		b = checkpoint.AppendU64(b, ev.Seq)
	}
	return b
}

// rngState serializes every registered stream's exact position in creation
// order. (The per-respawn "respawn-jitter" stream is rebuilt fresh on every
// call and holds no cross-call state, so it is deliberately absent.)
func (w *World) rngState(b []byte) []byte {
	b = checkpoint.AppendU32(b, uint32(len(w.streams)))
	for _, s := range w.streams {
		st := s.State()
		b = checkpoint.AppendString(b, st.Name)
		b = checkpoint.AppendI64(b, st.Seed)
		b = checkpoint.AppendU64(b, st.Draws)
	}
	return b
}

// counterState serializes the world-level hook counters and bookkeeping
// maps (sorted) that feed Results.
func (w *World) counterState(b []byte) []byte {
	b = checkpoint.AppendI64(b, int64(w.Injector.Killed()))
	b = checkpoint.AppendI64(b, int64(w.reportsSent))
	b = checkpoint.AppendI64(b, int64(w.reportsDelivered))
	b = checkpoint.AppendI64(b, int64(w.requestsIssued))
	b = checkpoint.AppendI64(b, int64(w.requestsDelivered))
	b = checkpoint.AppendI64(b, int64(w.repairs))
	b = checkpoint.AppendI64(b, int64(w.strandedTasks))
	b = checkpoint.AppendI64(b, int64(w.requeuedTasks))
	b = checkpoint.AppendI64(b, int64(w.reportRetx))
	b = checkpoint.AppendI64(b, int64(w.reportsAban))
	b = checkpoint.AppendI64(b, int64(w.redispatches))
	b = checkpoint.AppendI64(b, int64(w.takeovers))
	b = checkpoint.AppendF64(b, float64(w.managerCrashAt))
	b = checkpoint.AppendBool(b, w.dupRepair)
	b = checkpoint.AppendI64(b, int64(w.dupRepairs))
	b = checkpoint.AppendI64(b, int64(w.nextID))
	// The sensor Config's manager is rewritten by takeover elections; the
	// rest of it is pure config.
	b = checkpoint.AppendI64(b, int64(w.sensorEnv.Reliability.Manager))

	ids := make([]radio.NodeID, 0, len(w.requeuedAt))
	for id := range w.requeuedAt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = checkpoint.AppendU32(b, uint32(len(ids)))
	for _, id := range ids {
		b = checkpoint.AppendI64(b, int64(id))
		b = checkpoint.AppendF64(b, float64(w.requeuedAt[id]))
	}

	sites := make([]geom.Point, 0, len(w.siteIDs))
	for p := range w.siteIDs {
		sites = append(sites, p)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].X != sites[j].X {
			return sites[i].X < sites[j].X
		}
		return sites[i].Y < sites[j].Y
	})
	b = checkpoint.AppendU32(b, uint32(len(sites)))
	for _, p := range sites {
		b = checkpoint.AppendF64(b, p.X)
		b = checkpoint.AppendF64(b, p.Y)
		placed := w.siteIDs[p]
		b = checkpoint.AppendU32(b, uint32(len(placed)))
		for _, id := range placed {
			b = checkpoint.AppendI64(b, int64(id))
		}
	}
	return b
}

// sensorState serializes every sensor (dead or alive) in ascending ID
// order.
func (w *World) sensorState(b []byte) []byte {
	ids := make([]radio.NodeID, 0, len(w.Sensors))
	for id := range w.Sensors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = checkpoint.AppendU32(b, uint32(len(ids)))
	for _, id := range ids {
		b = w.Sensors[id].AppendState(b)
	}
	return b
}

// robotState serializes every robot in deployment order.
func (w *World) robotState(b []byte) []byte {
	b = checkpoint.AppendU32(b, uint32(len(w.Robots)))
	for _, r := range w.Robots {
		b = r.AppendState(b)
	}
	return b
}

// managerState serializes the central manager; a presence marker keeps the
// section comparable across algorithms.
func (w *World) managerState(b []byte) []byte {
	b = checkpoint.AppendBool(b, w.Manager != nil)
	if w.Manager != nil {
		b = w.Manager.AppendState(b)
	}
	return b
}

// CheckpointOptions configure RunCheckpointed.
type CheckpointOptions struct {
	// Every is the simulated-time period between snapshots. Zero or
	// negative disables periodic snapshots (the run degenerates to Run).
	Every sim.Duration
	// OnSnapshot receives each periodic snapshot. A non-nil error aborts
	// the run.
	OnSnapshot func(*checkpoint.Snapshot) error
}

// RunCheckpointed executes the simulation to the configured horizon,
// pausing every opts.Every simulated seconds to hand a snapshot to
// opts.OnSnapshot. Segmented execution is behavior-identical to a single
// Run: the kernel's clock advances to each boundary whether or not events
// fire there, so the event trace and Results are bit-identical to an
// uncheckpointed run.
func (w *World) RunCheckpointed(opts CheckpointOptions) (Results, error) {
	if opts.Every > 0 && opts.OnSnapshot != nil {
		end := sim.Time(w.Cfg.SimTime)
		for t := w.Sched.Now().Add(opts.Every); t < end; t = t.Add(opts.Every) {
			w.Sched.Run(t)
			snap, err := w.Snapshot()
			if err != nil {
				return Results{}, err
			}
			if err := opts.OnSnapshot(snap); err != nil {
				return Results{}, fmt.Errorf("scenario: checkpoint at %v: %w", t, err)
			}
		}
	}
	return w.Run(), nil
}

// NearestSnapshot deterministically re-runs cfg and returns the latest
// snapshot taken strictly before at, on an every-spaced grid starting at
// t=0. Debugging workflow: a violation or anomaly detected at time at can
// be replayed from this snapshot with a tail trace (RestoreOpts) instead
// of re-tracing the whole run.
func NearestSnapshot(cfg Config, at sim.Time, every sim.Duration) (*checkpoint.Snapshot, error) {
	if every <= 0 {
		return nil, fmt.Errorf("scenario: NearestSnapshot: period %v not positive", every)
	}
	w, err := New(cfg)
	if err != nil {
		return nil, err
	}
	var snap *checkpoint.Snapshot
	for t := sim.Time(0); t < at; t = t.Add(every) {
		w.Sched.Run(t)
		s, err := w.Snapshot()
		if err != nil {
			return nil, err
		}
		snap = s
	}
	if snap == nil {
		return nil, fmt.Errorf("scenario: NearestSnapshot: nothing precedes t=%v", at)
	}
	return snap, nil
}

// RestoreOptions tune Restore.
type RestoreOptions struct {
	// TailTraceCapacity, when nonzero, appends a fresh trace ring of that
	// capacity to a restored world whose config has tracing off:
	// the continuation from the snapshot time records events for replay
	// debugging without the cost of tracing the whole prefix.
	TailTraceCapacity int
}

// Restore rebuilds a running world from a snapshot. See RestoreOpts.
func Restore(snap *checkpoint.Snapshot) (*World, error) {
	return RestoreOpts(snap, RestoreOptions{})
}

// RestoreOpts rebuilds a running world from a snapshot: it strictly decodes
// the embedded config (unknown fields are version skew, not noise), builds
// a fresh world, deterministically replays it to the snapshot time, and
// byte-verifies every section of a re-taken snapshot against the stored
// one. On success the returned world's continuation is bit-identical to the
// original run's; on any mismatch it returns ErrReplayDiverged naming the
// first divergent section.
func RestoreOpts(snap *checkpoint.Snapshot, opts RestoreOptions) (*World, error) {
	dec := json.NewDecoder(bytes.NewReader(snap.ConfigJSON))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("scenario: restore: config: %w", err)
	}
	if cfg.Seed != snap.Seed {
		return nil, fmt.Errorf("scenario: restore: header seed %d != config seed %d", snap.Seed, cfg.Seed)
	}
	w, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: restore: %w", err)
	}
	// Dark fast-forward: replay the prefix with no observers beyond what
	// the config itself installs.
	w.Sched.Run(sim.Time(snap.T))
	replayed, err := w.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("scenario: restore: %w", err)
	}
	if err := diffSnapshots(snap, replayed); err != nil {
		return nil, err
	}
	if opts.TailTraceCapacity != 0 && w.Trace == nil {
		// The replay ran every event up to the snapshot time, so only the
		// fault windows opening after it still have markers to record.
		w.startTrace(opts.TailTraceCapacity)
		w.armFaultMarkers(sim.Time(snap.T))
	}
	return w, nil
}

// diffSnapshots compares a stored snapshot against the replayed one and
// names the first divergence.
func diffSnapshots(want, got *checkpoint.Snapshot) error {
	if got.T != want.T {
		return fmt.Errorf("%w: clock %v != %v", ErrReplayDiverged, got.T, want.T)
	}
	if !bytes.Equal(got.ConfigJSON, want.ConfigJSON) {
		return fmt.Errorf("%w: config JSON does not round-trip", ErrReplayDiverged)
	}
	if len(got.Sections) != len(want.Sections) {
		return fmt.Errorf("%w: %d sections != %d", ErrReplayDiverged, len(got.Sections), len(want.Sections))
	}
	for i, ws := range want.Sections {
		gs := got.Sections[i]
		if gs.ID != ws.ID {
			return fmt.Errorf("%w: section %d is %v, want %v", ErrReplayDiverged, i, gs.ID, ws.ID)
		}
		if !bytes.Equal(gs.Payload, ws.Payload) {
			return fmt.Errorf("%w: section %v (%d vs %d bytes)", ErrReplayDiverged, ws.ID, len(gs.Payload), len(ws.Payload))
		}
	}
	return nil
}
