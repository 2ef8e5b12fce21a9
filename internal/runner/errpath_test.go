package runner

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"roborepair/internal/core"
	"roborepair/internal/scenario"
)

// withRunJob swaps the job executor for the duration of the test. The
// engine serializes nothing around runJob itself, so tests that stub it
// must not run in parallel with ones that use the real simulator.
func withRunJob(t *testing.T, fn func(scenario.Config) (scenario.Results, error)) {
	t.Helper()
	orig := runJob
	runJob = fn
	t.Cleanup(func() { runJob = orig })
}

// TestRunRecoversJobPanic: a panicking job becomes that job's error
// instead of killing the worker goroutine (which would deadlock the
// WaitGroup and take the whole grid down).
func TestRunRecoversJobPanic(t *testing.T) {
	withRunJob(t, func(cfg scenario.Config) (scenario.Results, error) {
		if cfg.Seed == 2 {
			panic("poisoned configuration")
		}
		return scenario.Results{Config: cfg}, nil
	})
	jobs := seedJobs(tinyConfig(core.Dynamic, 0), 4)
	results, stats, err := Run(jobs, Options{Procs: 2})
	if err == nil {
		t.Fatal("expected the panicking job's error")
	}
	if stats.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", stats.Failed)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "job panicked: poisoned configuration") {
		t.Fatalf("panic not converted to the job error: %v", results[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Fatalf("healthy job %d failed: %v", i, results[i].Err)
		}
	}
}

// TestRunJoinedErrorsInInputOrder: with completion order scrambled by the
// pool, the joined error still annotates and orders failures by input
// index.
func TestRunJoinedErrorsInInputOrder(t *testing.T) {
	withRunJob(t, func(cfg scenario.Config) (scenario.Results, error) {
		if cfg.Seed%2 == 0 {
			return scenario.Results{}, fmt.Errorf("seed %d refused", cfg.Seed)
		}
		return scenario.Results{Config: cfg}, nil
	})
	jobs := seedJobs(tinyConfig(core.Fixed, 0), 6)
	results, stats, err := Run(jobs, Options{Procs: 3})
	if err == nil {
		t.Fatal("expected errors")
	}
	if stats.Failed != 3 {
		t.Fatalf("Failed = %d, want 3", stats.Failed)
	}
	msg := err.Error()
	last := -1
	for _, i := range []int{1, 3, 5} { // seeds 2, 4, 6
		if !errors.Is(err, results[i].Err) {
			t.Fatalf("joined error lost job %d's error", i)
		}
		pos := strings.Index(msg, fmt.Sprintf("job %d:", i))
		if pos < 0 {
			t.Fatalf("joined error missing job %d: %q", i, msg)
		}
		if pos < last {
			t.Fatalf("joined errors out of input order: %q", msg)
		}
		last = pos
	}
}

// TestProgressUnderSingleWorker: with one worker completion order equals
// input order, so the progress stream is fully deterministic — every job
// observed (ProgressEvery ≤ 0), Done strictly increasing to Total,
// failures counted as they land, and a final snapshot at the drain.
func TestProgressUnderSingleWorker(t *testing.T) {
	withRunJob(t, func(cfg scenario.Config) (scenario.Results, error) {
		if cfg.Seed == 3 {
			return scenario.Results{}, errors.New("boom")
		}
		return scenario.Results{Config: cfg}, nil
	})
	jobs := seedJobs(tinyConfig(core.Centralized, 0), 5)
	var snaps []Progress
	_, _, err := Run(jobs, Options{
		Procs:    1,
		Progress: func(p Progress) { snaps = append(snaps, p) },
	})
	if err == nil {
		t.Fatal("expected the seed-3 error")
	}
	if len(snaps) != len(jobs) {
		t.Fatalf("got %d snapshots, want one per job: %+v", len(snaps), snaps)
	}
	for i, p := range snaps {
		if p.Done != i+1 {
			t.Fatalf("snapshot %d: Done = %d, want %d", i, p.Done, i+1)
		}
		if p.Total != len(jobs) || p.Procs != 1 {
			t.Fatalf("snapshot %d: %+v", i, p)
		}
		wantFailed := 0
		if i >= 2 { // seed 3 is job index 2
			wantFailed = 1
		}
		if p.Failed != wantFailed {
			t.Fatalf("snapshot %d: Failed = %d, want %d", i, p.Failed, wantFailed)
		}
	}
	final := snaps[len(snaps)-1]
	if final.Done != final.Total || final.ETA != 0 {
		t.Fatalf("final snapshot not terminal: %+v", final)
	}
	// 4 successful jobs × 3000 simulated seconds each.
	if final.SimSeconds != 4*3000.0 {
		t.Fatalf("final SimSeconds = %v, want %v", final.SimSeconds, 4*3000.0)
	}
}
