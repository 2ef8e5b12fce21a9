package scenario

import (
	"errors"
	"reflect"
	"testing"

	"roborepair/internal/chaos"
	"roborepair/internal/checkpoint"
	"roborepair/internal/core"
	"roborepair/internal/sim"
	"roborepair/internal/trace"
)

// ckptConfig is the differential-test base: short horizon with failures
// inside it, tracing on (the trace is the equality oracle), reliability on,
// and per-algorithm extras so every snapshot section carries real state —
// telemetry for Fixed, a corruption window (chaos ring + hostile wiring)
// for Dynamic.
func ckptConfig(alg core.Algorithm) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = alg
	cfg.SimTime = 2500
	cfg.MeanLifetime = 3000
	cfg.Seed = 11
	cfg.TraceCapacity = 4096
	cfg.Reliability.Enabled = true
	switch alg {
	case core.Fixed:
		cfg.Telemetry.Enabled = true
		cfg.Recorder.SamplePeriodS = 100
	case core.Dynamic:
		plan, err := chaos.Parse("corrupt@400-1200=0.1")
		if err != nil {
			panic(err)
		}
		cfg.Faults = plan
	}
	return cfg
}

// TestCheckpointRestoreDifferential is the checkpoint layer's core
// contract, for every algorithm: a run that is (a) segmented by
// periodic snapshots and (b) killed at a mid-run snapshot, round-tripped
// through the binary format, restored, and continued — produces Results and
// an event trace bit-identical to an uninterrupted run.
func TestCheckpointRestoreDifferential(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		t.Run(alg.String()+"/ladder", func(t *testing.T) {
			cfg := ckptConfig(alg)

			// Uninterrupted reference run.
			wA, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			resA := resultsJSON(t, wA.Run())
			traceA := wA.Trace.Events()

			// Checkpointed run: snapshot every 600 s, keep the one at
			// t=1200 round-tripped through the binary format.
			wB, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var blob []byte
			resB, err := wB.RunCheckpointed(CheckpointOptions{
				Every: 600,
				OnSnapshot: func(s *checkpoint.Snapshot) error {
					if s.T == 1200 {
						b, err := checkpoint.Encode(s)
						if err != nil {
							return err
						}
						blob = b
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := resultsJSON(t, resB); got != resA {
				t.Errorf("segmented run diverged from uninterrupted run:\n got %s\nwant %s", got, resA)
			}
			if !reflect.DeepEqual(wB.Trace.Events(), traceA) {
				t.Error("segmented run trace diverged from uninterrupted run")
			}
			if blob == nil {
				t.Fatal("no snapshot captured at t=1200")
			}

			// Kill + restore: decode the banked snapshot, rebuild, and
			// run to the horizon.
			snap, err := checkpoint.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			wC, err := Restore(snap)
			if err != nil {
				t.Fatal(err)
			}
			if wC.Sched.Now() != 1200 {
				t.Fatalf("restored clock = %v, want 1200", wC.Sched.Now())
			}
			if got := resultsJSON(t, wC.Run()); got != resA {
				t.Errorf("restored run diverged from uninterrupted run:\n got %s\nwant %s", got, resA)
			}
			if !reflect.DeepEqual(wC.Trace.Events(), traceA) {
				t.Error("restored run trace diverged from uninterrupted run")
			}
		})
	}
}

// TestRestoreRejectsTamperedSnapshot: scenario-level defenses past the
// binary CRCs. A snapshot whose decoded contents disagree with a replay —
// wrong section bytes, wrong clock, drifted config, wrong seed — must be
// rejected with a diagnosable error, never silently restored.
func TestRestoreRejectsTamperedSnapshot(t *testing.T) {
	cfg := ckptConfig(core.Dynamic)
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Sched.Run(1000)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("section tamper", func(t *testing.T) {
		mut := *snap
		mut.Sections = append([]checkpoint.Section(nil), snap.Sections...)
		sec := mut.Sections[3] // sensors
		payload := append([]byte(nil), sec.Payload...)
		payload[len(payload)/2] ^= 0x40
		mut.Sections[3] = checkpoint.Section{ID: sec.ID, Payload: payload}
		if _, err := Restore(&mut); !errors.Is(err, ErrReplayDiverged) {
			t.Errorf("tampered section: err = %v, want ErrReplayDiverged", err)
		}
	})

	t.Run("clock tamper", func(t *testing.T) {
		mut := *snap
		mut.T = 999.5
		if _, err := Restore(&mut); !errors.Is(err, ErrReplayDiverged) {
			t.Errorf("tampered clock: err = %v, want ErrReplayDiverged", err)
		}
	})

	t.Run("unknown config field", func(t *testing.T) {
		mut := *snap
		mut.ConfigJSON = append([]byte(`{"futureKnob":1,`), snap.ConfigJSON[1:]...)
		if _, err := Restore(&mut); err == nil {
			t.Error("unknown config field accepted")
		}
	})

	t.Run("seed mismatch", func(t *testing.T) {
		mut := *snap
		mut.Seed = snap.Seed + 1
		if _, err := Restore(&mut); err == nil {
			t.Error("header/config seed mismatch accepted")
		}
	})
}

// TestRestoreTailTrace: a config with tracing off can still gain a trace at
// restore time, recording only the continuation — the replay-from-snapshot
// debugging workflow.
func TestRestoreTailTrace(t *testing.T) {
	cfg := ckptConfig(core.Dynamic)
	cfg.TraceCapacity = 0
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Sched.Run(1000)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := RestoreOpts(snap, RestoreOptions{TailTraceCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if re.Trace == nil {
		t.Fatal("tail trace not installed")
	}
	re.Run()
	evs := re.Trace.Events()
	if len(evs) == 0 {
		t.Fatal("tail trace recorded nothing")
	}
	for _, e := range evs {
		if e.At < 1000 {
			t.Fatalf("tail trace holds pre-snapshot event at %v", e.At)
		}
	}
}

// TestSnapshotDoesNotPerturb: taking a snapshot mid-run must not change the
// run — the world keeps executing exactly as if never observed.
func TestSnapshotDoesNotPerturb(t *testing.T) {
	cfg := ckptConfig(core.Centralized)
	wA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resA := resultsJSON(t, wA.Run())

	wB, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []sim.Time{300, 700, 1100, 1900} {
		wB.Sched.Run(at)
		if _, err := wB.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if got := resultsJSON(t, wB.Run()); got != resA {
		t.Errorf("snapshots perturbed the run:\n got %s\nwant %s", got, resA)
	}
	if !reflect.DeepEqual(wB.Trace.Events(), wA.Trace.Events()) {
		t.Error("snapshots perturbed the trace")
	}
}

// TestTailTraceRecordsLaterFaultWindows: a world restored with a tail trace
// records the markers of the loss bursts and blackouts that open after the
// snapshot, exactly as the same config traced from t = 0 records them.
func TestTailTraceRecordsLaterFaultWindows(t *testing.T) {
	const at = 1500
	cfg := quickConfig(core.Dynamic, 4)
	cfg.SimTime = 4000
	plan, err := chaos.Parse("burst@1000-1100=0.2;blackout@3000-3200=100,100,80;burst@3500-3600=0.2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan

	faultsAfter := func(l *trace.Log) []trace.Event {
		var out []trace.Event
		for _, e := range l.Events() {
			if e.Kind == trace.KindFault && e.At > at {
				out = append(out, e)
			}
		}
		return out
	}
	traced := cfg
	traced.TraceCapacity = -1
	wFull, err := New(traced)
	if err != nil {
		t.Fatal(err)
	}
	wFull.Run()
	want := faultsAfter(wFull.Trace)
	if len(want) != 2 {
		t.Fatalf("traced run recorded %d fault markers after t=%d, want 2: %v", len(want), at, want)
	}

	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Sched.Run(at)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOpts(snap, RestoreOptions{TailTraceCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	restored.Run()
	if got := faultsAfter(restored.Trace); !reflect.DeepEqual(got, want) {
		t.Fatalf("tail trace fault markers = %v, want %v", got, want)
	}
}
