package runner

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"roborepair/internal/core"
	"roborepair/internal/scenario"
)

// tinyConfig keeps test runs fast: a 4-robot field over a short horizon
// still exercises failures, reports, floods, and repairs.
// seedJobs crosses a base configuration with seeds 1..n: one job per
// seed, in seed order, with the seed as the Tag.
func seedJobs(base scenario.Config, n int) []Job {
	jobs := make([]Job, 0, n)
	for seed := int64(1); seed <= int64(n); seed++ {
		cfg := base
		cfg.Seed = seed
		jobs = append(jobs, Job{Config: cfg, Tag: seed})
	}
	return jobs
}

func tinyConfig(alg core.Algorithm, seed int64) scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Algorithm = alg
	cfg.SimTime = 3000
	cfg.MeanLifetime = 4000 // enough failures in the short horizon
	cfg.Seed = seed
	return cfg
}

// fingerprint renders Results to canonical bytes. The Registry field is
// excluded from JSON, so this captures exactly the reported quantities.
func fingerprint(t *testing.T, r scenario.Results) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunDeterministicAcrossRepeats guards the simulator core: the same
// (config, seed) must reproduce byte-identical results run-to-run. This
// is the invariant the event pool and delivery-buffer reuse must not break.
func TestRunDeterministicAcrossRepeats(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		cfg := tinyConfig(alg, 7)
		a, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb := fingerprint(t, a), fingerprint(t, b)
		if fa != fb {
			t.Fatalf("%v: same config+seed diverged:\nrun1: %s\nrun2: %s", alg, fa, fb)
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts guards the parallel engine: a
// grid must produce byte-identical per-cell results with 1 worker and
// with many, in the same stable input order.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var jobs []Job
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		for seed := int64(1); seed <= 2; seed++ {
			jobs = append(jobs, Job{Config: tinyConfig(alg, seed)})
		}
	}
	serial, _, err := Run(jobs, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := Run(jobs, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result count: serial=%d parallel=%d want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range jobs {
		if serial[i].Index != i || parallel[i].Index != i {
			t.Fatalf("results out of input order at %d", i)
		}
		fs, fp := fingerprint(t, serial[i].Res), fingerprint(t, parallel[i].Res)
		if fs != fp {
			t.Fatalf("cell %d differs between 1 and 4 workers:\nserial:   %s\nparallel: %s", i, fs, fp)
		}
	}
}

func TestRunReportsStats(t *testing.T) {
	jobs := seedJobs(tinyConfig(core.Dynamic, 0), 3)
	results, stats, err := Run(jobs, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 3 || stats.Failed != 0 || stats.Procs != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if want := 3 * 3000.0; stats.SimSeconds != want {
		t.Fatalf("SimSeconds = %v, want %v", stats.SimSeconds, want)
	}
	if stats.Throughput() <= 0 {
		t.Fatalf("Throughput = %v, want > 0", stats.Throughput())
	}
	for i, r := range results {
		if r.Job.Config.Seed != int64(i+1) {
			t.Fatalf("seed order broken: job %d has seed %d", i, r.Job.Config.Seed)
		}
	}
}

func TestRunJoinsAllErrorsWithoutAborting(t *testing.T) {
	bad := tinyConfig(core.Dynamic, 1)
	bad.Robots = 0 // fails validation
	worse := tinyConfig(core.Fixed, 2)
	worse.SimTime = -1 // also fails validation
	jobs := []Job{
		{Config: tinyConfig(core.Dynamic, 1)},
		{Config: bad},
		{Config: tinyConfig(core.Fixed, 2)},
		{Config: worse},
	}
	results, stats, err := Run(jobs, Options{Procs: 2})
	if err == nil {
		t.Fatal("expected the invalid jobs' errors")
	}
	if stats.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", stats.Failed)
	}
	// errors.Join keeps every failure addressable via errors.Is and
	// renders them all, annotated with the job index, in input order.
	if !errors.Is(err, results[1].Err) || !errors.Is(err, results[3].Err) {
		t.Fatalf("joined error lost a member: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "job 1") || !strings.Contains(msg, "job 3") {
		t.Fatalf("joined error not annotated with job indices: %q", msg)
	}
	if strings.Index(msg, "job 1") > strings.Index(msg, "job 3") {
		t.Fatalf("joined errors out of input order: %q", msg)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatal("healthy jobs should still have run")
	}
	if results[2].Res.FailuresInjected == 0 {
		t.Fatal("job after the failure did not run")
	}
}

func TestRunOnResultSeesEveryJob(t *testing.T) {
	jobs := seedJobs(tinyConfig(core.Dynamic, 0), 4)
	seen := make(map[int]bool)
	_, _, err := Run(jobs, Options{Procs: 3, OnResult: func(r Result) {
		seen[r.Index] = true // serialized by the engine
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("OnResult saw %d of %d jobs", len(seen), len(jobs))
	}
}
