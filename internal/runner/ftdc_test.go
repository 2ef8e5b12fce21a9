package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"roborepair/internal/core"
	"roborepair/internal/ftdc"
	"roborepair/internal/invariant"
	"roborepair/internal/scenario"
	"roborepair/internal/sim"
)

// withRunWorld swaps the world driver for the duration of the test. Like
// withRunJob, stubbed tests must not run in parallel with real-simulator
// ones.
func withRunWorld(t *testing.T, fn func(*scenario.World) scenario.Results) {
	t.Helper()
	orig := runWorld
	runWorld = fn
	t.Cleanup(func() { runWorld = orig })
}

// TestFTDCCleanGridLeavesNoDumps: with FTDCDir set, healthy jobs arm the
// black box but write nothing, and results stay bit-identical to an
// unarmed grid.
func TestFTDCCleanGridLeavesNoDumps(t *testing.T) {
	dir := t.TempDir()
	jobs := seedJobs(tinyConfig(core.Dynamic, 0), 2)
	plain, _, err := Run(jobs, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	armed, stats, err := Run(jobs, Options{Procs: 1, FTDCDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FTDCDumps != 0 {
		t.Fatalf("FTDCDumps = %d, want 0", stats.FTDCDumps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("clean grid left files behind: %v", entries)
	}
	for i := range jobs {
		// The echoed config shows the runner-armed recorder; every
		// reported quantity must be untouched.
		armed[i].Res.Config.Recorder = ftdc.Config{}
		a, b := fingerprint(t, plain[i].Res), fingerprint(t, armed[i].Res)
		if a != b {
			t.Fatalf("job %d: armed black box changed results:\n%s\n%s", i, a, b)
		}
	}
}

// TestFTDCDumpOnPanic: a job that panics mid-run still gets its retained
// recording written, because the recorder pointer is captured before the
// run starts.
func TestFTDCDumpOnPanic(t *testing.T) {
	withRunWorld(t, func(w *scenario.World) scenario.Results {
		if w.Cfg.Seed == 2 {
			w.Sched.Run(sim.Time(w.Cfg.SimTime / 2)) // record some samples first
			panic("poisoned configuration")
		}
		return w.Run()
	})
	dir := t.TempDir()
	jobs := seedJobs(tinyConfig(core.Dynamic, 0), 3)
	results, stats, err := Run(jobs, Options{Procs: 1, FTDCDir: dir})
	if err == nil {
		t.Fatal("expected the panicking job's error")
	}
	if stats.PanicRecoveries != 1 || stats.FTDCDumps != 1 {
		t.Fatalf("PanicRecoveries = %d, FTDCDumps = %d, want 1, 1", stats.PanicRecoveries, stats.FTDCDumps)
	}
	if results[1].Err == nil {
		t.Fatal("panicking job carries no error")
	}
	rec, err := ftdc.ReadFile(filepath.Join(dir, "job-000001.ftdc"))
	if err != nil {
		t.Fatalf("dump unreadable: %v", err)
	}
	if rec.NumRows() == 0 {
		t.Fatal("dump holds no samples")
	}
	ts := rec.Column(scenario.FTDCColTime)
	if last := ts[len(ts)-1]; last < 1000 {
		t.Fatalf("dump ends at t=%v, want samples up to the panic point", last)
	}
	for _, i := range []int{0, 2} {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("job-%06d.ftdc", i))); !os.IsNotExist(err) {
			t.Fatalf("healthy job %d left a dump", i)
		}
	}
}

// TestFTDCDumpOnViolation: a job whose results carry invariant
// violations gets its recording banked even though the run completed.
func TestFTDCDumpOnViolation(t *testing.T) {
	withRunWorld(t, func(w *scenario.World) scenario.Results {
		res := w.Run()
		if w.Cfg.Seed == 1 {
			res.Violations = append(res.Violations, invariant.Violation{
				Law: "test", Detail: "synthetic violation",
			})
		}
		return res
	})
	dir := t.TempDir()
	jobs := seedJobs(tinyConfig(core.Fixed, 0), 2)
	_, stats, err := Run(jobs, Options{Procs: 1, FTDCDir: dir})
	if err != nil {
		t.Fatal(err) // violations are data, not run errors
	}
	if stats.FTDCDumps != 1 {
		t.Fatalf("FTDCDumps = %d, want 1", stats.FTDCDumps)
	}
	rec, err := ftdc.ReadFile(filepath.Join(dir, "job-000000.ftdc"))
	if err != nil {
		t.Fatalf("dump unreadable: %v", err)
	}
	// The full run was recorded in black-box mode; the retained window
	// must end at the horizon.
	ts := rec.Column(scenario.FTDCColTime)
	if got := ts[len(ts)-1]; got != jobs[0].Config.SimTime {
		t.Fatalf("dump ends at t=%v, want %v", got, jobs[0].Config.SimTime)
	}
}

// TestFTDCBlackBoxKeepsCadenceAndTelemetryRows: the runner-armed black box
// samples at the configured cadence, and keeps every chunk when telemetry
// reads the recording as its time series.
func TestFTDCBlackBoxKeepsCadenceAndTelemetryRows(t *testing.T) {
	cfg := tinyConfig(core.Dynamic, 1)
	cfg.Recorder.SamplePeriodS = 10
	cfg.Recorder.ChunkRows = 20
	for _, telemetryOn := range []bool{false, true} {
		cfg.Telemetry.Enabled = telemetryOn
		results, _, err := Run([]Job{{Config: cfg}}, Options{Procs: 1, FTDCDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		rec := results[0].Res.Recording
		if got := rec.Schema().PeriodS; got != 10 {
			t.Fatalf("telemetry=%v: black box samples every %v s, want 10", telemetryOn, got)
		}
		// 301 samples in 20-row chunks: the black box keeps the last 4.
		if evicted := rec.EvictedChunks(); (evicted > 0) == telemetryOn {
			t.Fatalf("telemetry=%v: %d chunks evicted", telemetryOn, evicted)
		}
	}
}
