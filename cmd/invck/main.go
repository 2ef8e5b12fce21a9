// Command invck sweeps the conservation-law checker across the full
// algorithm × fault-plan × medium × seed grid and reports every
// violation, for CI and pre-release smoke runs: every registered
// algorithm, each under no chaos, a loss burst, a regional blackout, a
// manager crash, and frame corruption at three rates, on the ideal medium
// and under CSMA contention, over several seeds.
//
// Usage:
//
//	invck                        # default grid: every algorithm × 7 plans × 2 media × 5 seeds
//	invck -seeds 3 -simtime 4000 # smaller smoke grid
//	invck -battery 60000         # energy layer live; adds drain plans to the grid
//	invck -csv grid.csv          # also dump one CSV row per run
//
// Any violation prints a diagnostic and exits nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"roborepair"
	"roborepair/internal/analysis"
	"roborepair/internal/chaos"
	"roborepair/internal/checkpoint"
	"roborepair/internal/ftdc"
	"roborepair/internal/invariant"
	"roborepair/internal/runner"
	"roborepair/internal/scenario"
	"roborepair/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "invck:", err)
		os.Exit(1)
	}
}

// plans builds the chaos schedule for one horizon: windows are fractions
// of the simulated time and the blackout sits mid-field, so the grid
// scales with -simtime instead of silently missing short runs.
func plans(simtime, side float64) map[string]*chaos.FaultPlan {
	burst := fmt.Sprintf("burst@%g-%g=0.3", simtime/4, simtime/2)
	blackout := fmt.Sprintf("blackout@%g-%g=%g,%g,%g", simtime/4, simtime/2, side/2, side/2, side/4)
	mgr := fmt.Sprintf("mgr@%g", simtime/4)
	out := map[string]*chaos.FaultPlan{"none": nil}
	specs := map[string]string{"burst": burst, "blackout": blackout, "mgr-crash": mgr}
	// Frame-corruption plans use the default mix mode so every mutation
	// (bit flips, truncation, garbage, duplication, replay) hits each cell.
	for name, rate := range map[string]float64{"corrupt-1": 0.01, "corrupt-5": 0.05, "corrupt-20": 0.20} {
		specs[name] = fmt.Sprintf("corrupt@%g-%g=%g", simtime/4, simtime/2, rate)
	}
	for name, spec := range specs {
		p, err := chaos.Parse(spec)
		if err != nil {
			panic(fmt.Sprintf("invck: bad built-in plan %q: %v", spec, err))
		}
		out[name] = p
	}
	return out
}

// tag identifies one grid cell for reporting: its fault plan and its
// medium, "ideal" or "csma" (Config.MACContention).
type tag struct {
	plan, medium string
}

func run(args []string) error {
	fs := flag.NewFlagSet("invck", flag.ContinueOnError)
	seeds := fs.Int("seeds", 5, "seeds per cell")
	simtime := fs.Float64("simtime", 8000, "simulated seconds per run")
	robots := fs.Int("robots", 4, "robots per run")
	procs := fs.Int("procs", 0, "parallel workers (0 = GOMAXPROCS)")
	battery := fs.Float64("battery", 0, "per-robot battery capacity in joules (0 = energy layer off); adds drain plans to the grid")
	recharge := fs.Float64("recharge", 250, "depot recharge watts when -battery is set (0 = starvation mode)")
	csvPath := fs.String("csv", "", "also write one CSV row per run to this file")
	progress := fs.Bool("progress", false, "print live grid progress to stderr")
	snapshotDir := fs.String("snapshot-dir", "", "on violation, bank the snapshot nearest the first breach here and replay it with a tail trace")
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := roborepair.DefaultConfig()
	base.SimTime = *simtime
	base.Robots = *robots
	base.MeanLifetime = *simtime / 2 // enough failures inside the horizon
	base.Reliability.Enabled = true
	base.Invariants.Enabled = true

	algs := roborepair.Algorithms() // every registered algorithm, including extensions
	planNames := []string{"none", "burst", "blackout", "mgr-crash", "corrupt-1", "corrupt-5", "corrupt-20"}
	grid := plans(*simtime, base.FieldSide())
	if *battery > 0 {
		base.Battery = &roborepair.BatteryConfig{CapacityJ: *battery, RechargeW: *recharge}
		// With the energy layer live, adversarial drain windows join the
		// grid: a fleet-wide slow drain and a single-robot hard drain.
		for name, spec := range map[string]string{
			"drain-fleet": fmt.Sprintf("drain@%g-%g=0.5", *simtime/4, *simtime/2),
			"drain-one":   fmt.Sprintf("drain@%g-%g=2,0", *simtime/4, *simtime/2),
		} {
			p, err := chaos.Parse(spec)
			if err != nil {
				panic(fmt.Sprintf("invck: bad built-in plan %q: %v", spec, err))
			}
			grid[name] = p
		}
		planNames = append(planNames, "drain-fleet", "drain-one")
	}

	media := []string{"ideal", "csma"}
	var jobs []runner.Job
	for _, alg := range algs {
		for _, pn := range planNames {
			for _, m := range media {
				for seed := int64(1); seed <= int64(*seeds); seed++ {
					cfg := base
					cfg.Algorithm = alg
					cfg.Seed = seed
					cfg.Faults = grid[pn]
					cfg.MACContention = m == "csma"
					jobs = append(jobs, runner.Job{Config: cfg, Tag: tag{plan: pn, medium: m}})
				}
			}
		}
	}

	ropts := runner.Options{Procs: *procs}
	if *progress {
		ropts.Progress = runner.ProgressWriter(os.Stderr)
		ropts.ProgressEvery = 250 * time.Millisecond
	}
	results, stats, err := runner.Run(jobs, ropts)
	if err != nil {
		return err
	}

	violations := 0
	for _, r := range results {
		for _, v := range r.Res.Violations {
			violations++
			fmt.Fprintf(os.Stderr, "invck: %s/%s/%s/seed=%d: %s\n",
				r.Job.Config.Algorithm, r.Job.Tag.(tag).plan, r.Job.Tag.(tag).medium, r.Job.Config.Seed, v)
		}
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, results); err != nil {
			return err
		}
	}
	fmt.Printf("invck: %d runs (%d algorithms × %d plans × %d media × %d seeds) in %.1fs: %d violations\n",
		stats.Runs, len(algs), len(planNames), len(media), *seeds, stats.Wall.Seconds(), violations)
	if violations > 0 {
		if *snapshotDir != "" {
			if err := replayFirstViolation(results, *snapshotDir, *simtime); err != nil {
				fmt.Fprintln(os.Stderr, "invck: replay:", err)
			}
		}
		return fmt.Errorf("%d invariant violations", violations)
	}
	return nil
}

// replayFirstViolation takes the first violated run, deterministically
// re-derives the snapshot nearest (strictly before) its earliest breach,
// banks it in dir for offline debugging, then restores it with a tail
// trace and replays past the violation so the events leading up to the
// breach print without re-tracing the whole run.
func replayFirstViolation(results []runner.Result, dir string, simtime float64) error {
	for _, r := range results {
		v, ok := invariant.First(r.Res.Violations)
		if !ok {
			continue
		}
		every := sim.Duration(simtime / 16)
		snap, err := scenario.NearestSnapshot(r.Job.Config, v.At, every)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("violation-%s-%s-%s-seed%d.ckpt",
			r.Job.Config.Algorithm, r.Job.Tag.(tag).plan, r.Job.Tag.(tag).medium, r.Job.Config.Seed))
		if err := checkpoint.WriteFile(path, snap); err != nil {
			return err
		}
		w, err := scenario.RestoreOpts(snap, scenario.RestoreOptions{TailTraceCapacity: 4096})
		if err != nil {
			return err
		}
		w.Sched.Run(v.At.Add(1))
		fmt.Fprintf(os.Stderr,
			"invck: first violation at %v (%s); snapshot at t=%.0f banked in %s; replayed tail:\n",
			v.At, v.Law, snap.T, path)
		fmt.Fprint(os.Stderr, w.Trace.Render(40))
		// Bank the flight recording leading into the breach alongside the
		// snapshot: re-run the same deterministic configuration with the
		// recorder armed, stopping just past the violation.
		rcfg := r.Job.Config
		rcfg.Recorder = ftdc.Config{Enabled: true}
		rw, err := scenario.New(rcfg)
		if err != nil {
			return err
		}
		rw.Sched.Run(v.At.Add(1))
		fpath := strings.TrimSuffix(path, ".ckpt") + ".ftdc"
		if err := rw.Recorder.WriteFile(fpath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "invck: flight recording through the breach banked in %s (decode with ftdcdump)\n", fpath)
		return nil
	}
	return nil
}

// writeCSV dumps one row per run and re-validates the file through the
// shared artifact checker, so the tool cannot emit a CSV it would itself
// reject.
func writeCSV(path string, results []runner.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "algorithm,plan,medium,seed,failures,repairs,violations,corrupted,malformed,replay_rejected")
	for _, r := range results {
		fmt.Fprintf(f, "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d\n",
			r.Job.Config.Algorithm, r.Job.Tag.(tag).plan, r.Job.Tag.(tag).medium, r.Job.Config.Seed,
			r.Res.FailuresInjected, r.Res.Repairs, len(r.Res.Violations),
			r.Res.CorruptedFrames, r.Res.DroppedMalformed, r.Res.ReplayRejected)
	}
	if err := f.Close(); err != nil {
		return err
	}
	check, err := os.Open(path)
	if err != nil {
		return err
	}
	defer check.Close()
	if err := analysis.CheckCSV(check, "violations", "corrupted", "malformed", "replay_rejected"); err != nil {
		return fmt.Errorf("%s: emitted CSV failed validation: %w", path, err)
	}
	return nil
}
