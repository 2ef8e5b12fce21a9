// Package runner is the parallel experiment engine: it fans a grid of
// independent simulation configurations out over a fixed pool of worker
// goroutines and collects per-run results in stable input order.
//
// Every simulation run is self-contained — it builds its own scheduler,
// medium, metrics registry, and random streams from the config seed — so
// runs parallelize with no shared state and no locks on the hot path.
// Results are therefore bit-identical for a given (config, seed) whatever
// the worker count; only wall-clock time changes. The engine reports
// aggregate throughput in simulated seconds per wall-clock second, the
// simulator's headline performance number.
package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roborepair/internal/checkpoint"
	"roborepair/internal/ftdc"
	"roborepair/internal/scenario"
	"roborepair/internal/sim"
)

// Job is one cell of an experiment grid: a complete run configuration
// plus optional caller metadata carried through to the Result.
type Job struct {
	Config scenario.Config
	// Tag is opaque caller metadata (e.g. the swept parameter value).
	Tag any
}

// Result is the outcome of one job.
type Result struct {
	// Index is the job's position in the input slice.
	Index int
	// Job echoes the input cell.
	Job Job
	// Res holds the run's results when Err is nil.
	Res scenario.Results
	// Err is the run error, if the configuration failed to build or run.
	Err error
}

// Stats aggregates one engine invocation.
type Stats struct {
	// Runs is the number of jobs executed (including failures).
	Runs int
	// Failed is the number of jobs that returned an error.
	Failed int
	// Procs is the worker count actually used.
	Procs int
	// Wall is the elapsed wall-clock time for the whole grid.
	Wall time.Duration
	// SimSeconds is the total simulated time across successful runs.
	SimSeconds float64
	// WorkerBusy is the time each worker spent inside simulation runs (as
	// opposed to idle, waiting for the grid to drain); indexed by worker.
	WorkerBusy []time.Duration
	// Skipped is the number of jobs replayed from the resume journal
	// instead of re-run (their SimSeconds do not count toward throughput).
	Skipped int
	// Resumed is the number of jobs continued mid-flight from an on-disk
	// checkpoint instead of started from scratch.
	Resumed int
	// SnapshotsRejected counts per-job checkpoint files that failed to
	// decode or verify; each such job fell back to a full run.
	SnapshotsRejected int
	// PanicRecoveries counts jobs whose run panicked; each panic was
	// recovered and converted into that job's error.
	PanicRecoveries int
	// FirstPanic is the first recovered panic's message, "" when none.
	FirstPanic string
	// FTDCDumps is the number of flight-recorder dumps written to
	// Options.FTDCDir (one per job that panicked or finished with
	// invariant violations).
	FTDCDumps int
}

// Utilization reports the fraction of worker-time spent running
// simulations, in [0, 1]. A value well below 1 on a long grid means the
// tail of slow jobs is starving the pool.
func (s Stats) Utilization() float64 {
	if s.Wall <= 0 || s.Procs == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range s.WorkerBusy {
		busy += b
	}
	return busy.Seconds() / (s.Wall.Seconds() * float64(s.Procs))
}

// Throughput reports simulated seconds per wall-clock second.
func (s Stats) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return s.SimSeconds / s.Wall.Seconds()
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d runs on %d workers in %.2fs (%.0f sim-s/s, %.0f%% util)",
		s.Runs, s.Procs, s.Wall.Seconds(), s.Throughput(), 100*s.Utilization())
}

// Options parameterizes an engine invocation.
type Options struct {
	// Procs is the worker-pool size; values ≤ 0 select GOMAXPROCS.
	Procs int
	// OnResult, when non-nil, observes each result as it completes.
	// Calls are serialized but arrive in completion order, which varies
	// with the worker count — use it for progress reporting, not for
	// order-dependent collection (the returned slice is already stable).
	OnResult func(Result)
	// Progress, when non-nil, receives a live snapshot of the grid after
	// completed jobs, rate-limited to one call per ProgressEvery, plus a
	// final snapshot when the grid drains. Calls are serialized. Use
	// ProgressWriter for the standard stderr rendering.
	Progress func(Progress)
	// ProgressEvery is the minimum wall-clock interval between Progress
	// calls; values ≤ 0 report after every job.
	ProgressEvery time.Duration
	// Journal, when non-nil, makes the grid crash-safe: every completed
	// job is durably appended, and jobs already present (from a previous,
	// killed invocation of the same grid) are replayed instead of re-run.
	// Replayed results are bit-identical to freshly computed ones except
	// for fields excluded from JSON (the live Registry and Telemetry
	// pointers), so order-stable CSV output is byte-identical on resume.
	Journal *Journal
	// CheckpointDir, when set together with CheckpointEvery > 0, snapshots
	// every running job's full simulator state to
	// CheckpointDir/job-NNNNNN.ckpt every CheckpointEvery simulated
	// seconds. A resumed grid restores each unfinished job from its latest
	// valid snapshot and re-runs only the remainder; snapshots that fail
	// decoding or replay verification are rejected and the job restarts
	// from scratch. Checkpoint files are removed as their jobs complete.
	CheckpointDir string
	// CheckpointEvery is the per-job snapshot period in simulated seconds.
	CheckpointEvery float64
	// FTDCDir, when set, arms black-box flight recording on every job and
	// dumps the retained recording to FTDCDir/job-NNNNNN.ftdc when that
	// job panics or finishes with invariant violations. Jobs whose
	// configs already enable recording keep their own settings; the rest
	// are armed at their configured cadence, in bounded last-N-chunk
	// retention mode unless telemetry is on (its time series is the whole
	// recording). Arming does not perturb results (the recorder only reads
	// simulation state). Clean jobs leave no file behind.
	FTDCDir string
}

// blackBoxKeep bounds runner-armed flight recording: only the last
// blackBoxKeep encoded chunks (plus the pending tail) stay in memory,
// so arming a whole grid costs a few KiB per in-flight job regardless
// of horizon.
const blackBoxKeep = 4

// runJob executes one configuration; swappable so tests can inject
// failing or panicking jobs without a panicking scenario config.
var runJob = scenario.Run

// runWorld drives a built world to completion. It exists (and is
// swappable) so tests can inject a mid-run panic or synthetic invariant
// violations on the flight-recorder path, where the recorder pointer
// must be captured before the run starts.
var runWorld = func(w *scenario.World) scenario.Results { return w.Run() }

// runOutcome is runOne's full report: the run result plus how it got there.
type runOutcome struct {
	res        scenario.Results
	err        error
	panicked   bool
	resumed    bool // continued from a valid on-disk checkpoint
	rejected   bool // a checkpoint file existed but failed decode/verify
	ftdcDumped bool // flight recording written on panic/violation
}

// runOne runs a single job, converting a panic into an ordinary error so
// one poisoned configuration cannot take down the whole grid (or the
// worker goroutine, which would deadlock the WaitGroup). With a checkpoint
// path the job first tries to restore from an existing snapshot — falling
// back to a full run if the file is missing, torn, or fails replay
// verification — and snapshots periodically while running. With an FTDC
// path, black-box recording is armed and the retained window is written
// out if the job panics or finishes with invariant violations; the
// recorder pointer is captured before the run so the dump survives a
// panic that never returns Results.
func runOne(cfg scenario.Config, ckptPath string, every float64, ftdcPath string) (out runOutcome) {
	var rec *ftdc.Recorder
	defer func() {
		if r := recover(); r != nil {
			out.panicked = true
			out.err = fmt.Errorf("runner: job panicked: %v", r)
		}
		if ftdcPath == "" || rec == nil {
			return
		}
		if !out.panicked && len(out.res.Violations) == 0 {
			return
		}
		if err := rec.WriteFile(ftdcPath); err == nil {
			out.ftdcDumped = true
		}
	}()
	if ftdcPath != "" && !cfg.Recorder.Enabled {
		// The configured cadence stays. Telemetry reads the whole
		// recording as its time series, so it keeps every chunk.
		cfg.Recorder.Enabled = true
		if !cfg.Telemetry.Enabled {
			cfg.Recorder.KeepChunks = blackBoxKeep
		}
	}
	if ckptPath == "" {
		if ftdcPath == "" {
			out.res, out.err = runJob(cfg)
			return out
		}
		w, err := scenario.New(cfg)
		if err != nil {
			out.err = err
			return out
		}
		rec = w.Recorder
		out.res = runWorld(w)
		return out
	}
	opts := scenario.CheckpointOptions{
		Every: sim.Duration(every),
		OnSnapshot: func(s *checkpoint.Snapshot) error {
			return checkpoint.WriteFile(ckptPath, s)
		},
	}
	if snap, err := checkpoint.ReadFile(ckptPath); err == nil {
		if w, rerr := scenario.Restore(snap); rerr == nil {
			out.resumed = true
			rec = w.Recorder
			out.res, out.err = w.RunCheckpointed(opts)
			return out
		}
		out.rejected = true
	} else if !errors.Is(err, os.ErrNotExist) {
		out.rejected = true
	}
	w, err := scenario.New(cfg)
	if err != nil {
		out.err = err
		return out
	}
	rec = w.Recorder
	out.res, out.err = w.RunCheckpointed(opts)
	return out
}

// Run executes every job on a pool of workers and returns the results in
// input order, alongside aggregate statistics. Individual run failures do
// not stop the grid; every failure (annotated with its job index, in
// input order) is aggregated into the returned error with errors.Join,
// so single-run callers keep the familiar (value, error) contract and
// grid callers see the complete failure picture. A job that panics is
// recovered and reported as that job's error.
func Run(jobs []Job, opts Options) ([]Result, Stats, error) {
	procs := opts.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	if procs > len(jobs) {
		procs = len(jobs)
	}
	if procs < 1 {
		procs = 1
	}

	results := make([]Result, len(jobs))
	// Per-worker busy nanoseconds; atomics because the progress reporter
	// reads them while workers are mid-grid.
	busy := make([]atomic.Int64, procs)
	start := time.Now()
	prog := newProgressState(opts, len(jobs), procs, start, busy)

	// Replay journaled jobs up front: their results are already durable,
	// so the workers only see the remainder.
	skipped := make([]bool, len(jobs))
	nSkipped := 0
	if opts.Journal != nil {
		for i := range jobs {
			if res, jerr, ok := opts.Journal.lookup(i); ok {
				results[i] = Result{Index: i, Job: jobs[i], Res: res, Err: jerr}
				skipped[i] = true
				nSkipped++
				prog.observe(results[i])
			}
		}
	}

	ckptPath := func(i int) string {
		if opts.CheckpointDir == "" || opts.CheckpointEvery <= 0 {
			return ""
		}
		return filepath.Join(opts.CheckpointDir, fmt.Sprintf("job-%06d.ckpt", i))
	}
	ftdcPath := func(i int) string {
		if opts.FTDCDir == "" {
			return ""
		}
		return filepath.Join(opts.FTDCDir, fmt.Sprintf("job-%06d.ftdc", i))
	}
	if opts.FTDCDir != "" {
		if err := os.MkdirAll(opts.FTDCDir, 0o755); err != nil {
			return nil, Stats{}, fmt.Errorf("runner: ftdc dir: %w", err)
		}
	}

	// Shared robustness accounting, guarded by mu with OnResult/Progress.
	var (
		resumed, rejected, panics int
		ftdcDumps                 int
		firstPanic                string
		journalErr                error
	)
	var next atomic.Int64
	var mu sync.Mutex // serializes OnResult, Progress, journal, and counters
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if skipped[i] {
					continue
				}
				path := ckptPath(i)
				runStart := time.Now()
				out := runOne(jobs[i].Config, path, opts.CheckpointEvery, ftdcPath(i))
				busy[worker].Add(int64(time.Since(runStart)))
				r := Result{Index: i, Job: jobs[i], Res: out.res, Err: out.err}
				results[i] = r
				if path != "" {
					// The job is done; its snapshot is stale.
					os.Remove(path)
				}
				mu.Lock()
				if out.resumed {
					resumed++
				}
				if out.rejected {
					rejected++
				}
				if out.panicked {
					panics++
					if firstPanic == "" {
						firstPanic = out.err.Error()
					}
				}
				if out.ftdcDumped {
					ftdcDumps++
				}
				if opts.Journal != nil {
					if err := opts.Journal.record(r); err != nil && journalErr == nil {
						journalErr = err
					}
				}
				if opts.OnResult != nil {
					opts.OnResult(r)
				}
				prog.observe(r)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	workerBusy := make([]time.Duration, procs)
	for w := range busy {
		workerBusy[w] = time.Duration(busy[w].Load())
	}
	stats := Stats{
		Runs: len(jobs), Procs: procs, Wall: time.Since(start), WorkerBusy: workerBusy,
		Skipped: nSkipped, Resumed: resumed, SnapshotsRejected: rejected,
		PanicRecoveries: panics, FirstPanic: firstPanic, FTDCDumps: ftdcDumps,
	}
	var errs []error
	if journalErr != nil {
		errs = append(errs, journalErr)
	}
	for i := range results {
		if results[i].Err != nil {
			stats.Failed++
			errs = append(errs, fmt.Errorf("runner: job %d: %w", i, results[i].Err))
			continue
		}
		if !skipped[i] {
			stats.SimSeconds += results[i].Job.Config.SimTime
		}
	}
	return results, stats, errors.Join(errs...)
}
