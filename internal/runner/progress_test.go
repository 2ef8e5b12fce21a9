package runner

import (
	"strings"
	"testing"
	"time"

	"roborepair/internal/core"
)

func TestRunReportsProgress(t *testing.T) {
	jobs := seedJobs(tinyConfig(core.Dynamic, 0), 4)
	var snaps []Progress
	_, stats, err := Run(jobs, Options{Procs: 2, Progress: func(p Progress) {
		snaps = append(snaps, p) // serialized by the engine
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	last := snaps[len(snaps)-1]
	if last.Done != len(jobs) || last.Total != len(jobs) {
		t.Fatalf("final snapshot = %+v, want done=total=%d", last, len(jobs))
	}
	if last.ETA != 0 {
		t.Fatalf("final ETA = %v, want 0", last.ETA)
	}
	if want := 4 * 3000.0; last.SimSeconds != want {
		t.Fatalf("final SimSeconds = %v, want %v", last.SimSeconds, want)
	}
	if last.Utilization <= 0 || last.Utilization > 1 {
		t.Fatalf("Utilization = %v, want (0, 1]", last.Utilization)
	}
	prev := 0
	for _, p := range snaps {
		if p.Done <= prev {
			t.Fatalf("Done not monotonic: %+v", snaps)
		}
		prev = p.Done
	}
	if len(stats.WorkerBusy) != 2 {
		t.Fatalf("WorkerBusy = %v, want 2 entries", stats.WorkerBusy)
	}
	var busy time.Duration
	for _, b := range stats.WorkerBusy {
		busy += b
	}
	if busy <= 0 {
		t.Fatal("workers recorded no busy time")
	}
	if u := stats.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("stats Utilization = %v, want (0, 1]", u)
	}
}

func TestProgressRateLimitKeepsFinalRow(t *testing.T) {
	jobs := seedJobs(tinyConfig(core.Dynamic, 0), 3)
	var snaps []Progress
	// An interval far longer than the grid suppresses the intermediate
	// rows but must never suppress the terminal one.
	_, _, err := Run(jobs, Options{Procs: 1, ProgressEvery: time.Hour,
		Progress: func(p Progress) { snaps = append(snaps, p) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Done != len(jobs) {
		t.Fatalf("snapshots = %+v, want exactly the terminal row", snaps)
	}
}

func TestProgressString(t *testing.T) {
	p := Progress{
		Done: 3, Total: 8, Failed: 1, Procs: 2,
		Elapsed: 2 * time.Second, SimSeconds: 6000,
		ETA: 3 * time.Second, Utilization: 0.5,
	}
	s := p.String()
	for _, want := range []string{"3/8", "3000 sim-s/s", "50% util", "eta 3s", "[1 failed]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

func TestProgressWriterRendersCarriageReturns(t *testing.T) {
	var b strings.Builder
	w := ProgressWriter(&b)
	w(Progress{Done: 1, Total: 2})
	w(Progress{Done: 2, Total: 2})
	out := b.String()
	if strings.Count(out, "\r") != 2 {
		t.Fatalf("output %q: want one \\r per update", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("output %q: terminal row should end the line", out)
	}
}
