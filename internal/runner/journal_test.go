package runner

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roborepair/internal/checkpoint"
	"roborepair/internal/core"
	"roborepair/internal/scenario"
)

// journalGrid is the resume-test grid: two algorithms × two seeds, small
// enough to run repeatedly.
func journalGrid() []Job {
	var jobs []Job
	for _, alg := range []core.Algorithm{core.Dynamic, core.Fixed} {
		for seed := int64(1); seed <= 2; seed++ {
			jobs = append(jobs, Job{Config: tinyConfig(alg, seed), Tag: seed})
		}
	}
	return jobs
}

// TestJournalResumeReplaysCompletedJobs: a grid resumed against a journal
// holding a strict subset of its results re-runs only the remainder, and
// the final result set is bit-identical to an uninterrupted grid's.
func TestJournalResumeReplaysCompletedJobs(t *testing.T) {
	jobs := journalGrid()
	ref, _, err := Run(jobs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}

	// First invocation "dies" after journaling two jobs: simulate by
	// recording a subset into a fresh journal.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if err := j.record(ref[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second invocation resumes.
	j2, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Completed() != 2 {
		t.Fatalf("Completed = %d, want 2", j2.Completed())
	}
	results, stats, err := Run(jobs, Options{Procs: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 2 {
		t.Fatalf("Skipped = %d, want 2", stats.Skipped)
	}
	for i := range ref {
		if got, want := fingerprint(t, results[i].Res), fingerprint(t, ref[i].Res); got != want {
			t.Errorf("job %d: resumed result diverged:\n got %s\nwant %s", i, got, want)
		}
	}

	// Third invocation: everything journaled, nothing runs.
	j3, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Completed() != len(jobs) {
		t.Fatalf("Completed = %d, want %d", j3.Completed(), len(jobs))
	}
	_, stats3, err := Run(jobs, Options{Procs: 2, Journal: j3})
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Skipped != len(jobs) || stats3.SimSeconds != 0 {
		t.Fatalf("full resume: Skipped = %d, SimSeconds = %g; want %d, 0",
			stats3.Skipped, stats3.SimSeconds, len(jobs))
	}
}

// TestJournalToleratesTornTrailingLine: a crash mid-append leaves a torn
// final line; reopening discards exactly that line, keeps every complete
// entry, and appends cleanly afterwards.
func TestJournalToleratesTornTrailingLine(t *testing.T) {
	jobs := journalGrid()
	ref, _, err := Run(jobs[:1], Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(ref[0]); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a torn write: a partial JSON line with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":1,"res":{"fail`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatalf("torn trailing line rejected: %v", err)
	}
	if j2.Completed() != 1 {
		t.Fatalf("Completed = %d, want 1 (torn line must not count)", j2.Completed())
	}
	// The truncated tail must not corrupt the next append.
	if err := j2.record(Result{Index: 1, Job: jobs[1], Res: ref[0].Res}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Completed() != 2 {
		t.Fatalf("Completed after re-append = %d, want 2", j3.Completed())
	}
}

// TestJournalRejectsMismatchedGrid: a journal written for one grid must
// not resume a different one.
func TestJournalRejectsMismatchedGrid(t *testing.T) {
	jobs := journalGrid()
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := journalGrid()
	other[0].Config.Seed = 99
	if _, err := OpenJournal(path, other); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("mismatched grid: err = %v, want ErrJournalMismatch", err)
	}
	if _, err := OpenJournal(path, jobs[:3]); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("shorter grid: err = %v, want ErrJournalMismatch", err)
	}
}

// TestJournalRejectsMidfileCorruption: a torn line is only forgivable at
// the tail; garbage in the middle is corruption.
func TestJournalRejectsMidfileCorruption(t *testing.T) {
	jobs := journalGrid()
	ref, _, err := Run(jobs[:1], Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(ref[0]); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Garbage followed by a valid complete entry: the bad line is not the
	// tail, so this is corruption, not a torn write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("NOT JSON\n")
	f.WriteString(`{"index":1,"err":"x"}` + "\n")
	f.Close()
	if _, err := OpenJournal(path, jobs); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestStatsSurfacePanics: recovered per-job panics are counted and the
// first message surfaced, so a grid that limps through poisoned configs
// says so instead of hiding it in the joined error.
func TestStatsSurfacePanics(t *testing.T) {
	withRunJob(t, func(cfg scenario.Config) (scenario.Results, error) {
		if cfg.Seed >= 3 {
			panic("poisoned")
		}
		return scenario.Results{Config: cfg}, nil
	})
	jobs := seedJobs(tinyConfig(core.Dynamic, 0), 4)
	_, stats, err := Run(jobs, Options{Procs: 2})
	if err == nil {
		t.Fatal("expected joined error")
	}
	if stats.PanicRecoveries != 2 {
		t.Fatalf("PanicRecoveries = %d, want 2", stats.PanicRecoveries)
	}
	if !strings.Contains(stats.FirstPanic, "poisoned") {
		t.Fatalf("FirstPanic = %q, want the panic message", stats.FirstPanic)
	}
}

// TestCheckpointedJobResumes: a job with a banked mid-run snapshot is
// restored and continued rather than restarted, and still produces the
// uninterrupted result. A garbage snapshot is rejected and the job falls
// back to a full run — same result either way.
func TestCheckpointedJobResumes(t *testing.T) {
	cfg := tinyConfig(core.Dynamic, 1)
	jobs := []Job{{Config: cfg}}
	ref, _, err := Run(jobs, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Bank a genuine mid-run snapshot where the runner will look for it.
	w, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Sched.Run(1500)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "job-000000.ckpt")
	if err := checkpoint.WriteFile(ckpt, snap); err != nil {
		t.Fatal(err)
	}

	results, stats, err := Run(jobs, Options{Procs: 1, CheckpointDir: dir, CheckpointEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 1 {
		t.Fatalf("Resumed = %d, want 1", stats.Resumed)
	}
	if got, want := fingerprint(t, results[0].Res), fingerprint(t, ref[0].Res); got != want {
		t.Errorf("resumed job diverged:\n got %s\nwant %s", got, want)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale checkpoint not removed after completion: %v", err)
	}

	// Corrupt snapshot: rejected, full re-run, same result.
	if err := os.WriteFile(ckpt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	results, stats, err = Run(jobs, Options{Procs: 1, CheckpointDir: dir, CheckpointEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotsRejected != 1 || stats.Resumed != 0 {
		t.Fatalf("SnapshotsRejected = %d, Resumed = %d; want 1, 0", stats.SnapshotsRejected, stats.Resumed)
	}
	if got, want := fingerprint(t, results[0].Res), fingerprint(t, ref[0].Res); got != want {
		t.Errorf("rejected-snapshot job diverged:\n got %s\nwant %s", got, want)
	}
}
