// Command sweep runs parameter sweeps over the simulator and emits one
// CSV row per run, suitable for plotting.
//
// Usage:
//
//	sweep -param robots -values 1,2,4,9,16 -algs dynamic,fixed
//	sweep -param lifetime -values 4000,8000,16000,32000
//	sweep -param threshold -values 5,10,20,40
//	sweep -param loss -values 0,0.05,0.1,0.2
//	sweep -param density -values 25,50,100
//	sweep -seeds 8 -procs 4       # parallel grid, identical CSV to -procs 1
//
// Robustness experiments inject a fault plan and enable the reliability
// protocol; the CSV gains the degradation columns (unrepaired, stranded,
// retransmissions, takeovers, ...):
//
//	sweep -param loss -values 0,0.1 -reliable \
//	      -fault 'robot@4000=0;burst@4000-8000=0.05;mgr@9000'
//
// Long grids survive being killed: -journal records every completed run
// durably, and a second invocation with the same flags resumes mid-flight,
// re-running only unfinished jobs while the final CSV stays byte-identical
// to an uninterrupted run. -checkpoint-dir additionally snapshots each
// running job so even partial runs resume from their last snapshot:
//
//	sweep -seeds 32 -journal grid.journal -checkpoint-dir ckpt -checkpoint-every 4000
//	# ... killed ...
//	sweep -seeds 32 -journal grid.journal -checkpoint-dir ckpt -checkpoint-every 4000 -resume
//
// Anomaly triage: -ftdc arms a bounded black-box flight recorder on every
// run; any run that panics or violates invariants leaves a compact .ftdc
// dump of its last samples, decodable offline with ftdcdump:
//
//	sweep -seeds 8 -invariants -ftdc dumps/
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"roborepair"
	"roborepair/internal/chaos"
	"roborepair/internal/runner"
)

// algNames renders the registered algorithm names for flag help.
func algNames() string {
	names := make([]string, 0, 8)
	for _, a := range roborepair.Algorithms() {
		names = append(names, string(a))
	}
	return strings.Join(names, "|")
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// cell tags a job with the swept parameter value; algorithm and seed are
// already part of the job's config.
type cell struct {
	value float64
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	param := fs.String("param", "robots", "robots|cargo|sensing|lifetime|threshold|loss|density")
	values := fs.String("values", "4,9,16", "comma-separated values of the swept parameter")
	algsFlag := fs.String("algs", "centralized,fixed,dynamic",
		"algorithms to sweep: comma-separated registered names, or 'all' ("+algNames()+")")
	simtime := fs.Float64("simtime", 16000, "simulated seconds per run")
	seeds := fs.Int("seeds", 1, "seeds per configuration")
	procs := fs.Int("procs", 0, "parallel workers (0 = GOMAXPROCS)")
	stats := fs.Bool("stats", false, "print engine throughput to stderr")
	fault := fs.String("fault", "", "fault plan, e.g. 'robot@4000=0;burst@4000-8000=0.05;blackout@2000-3000=100,100,80;mgr@9000;corrupt@4000-8000=0.05,mix;drain@4000-8000=0.5'")
	reliable := fs.Bool("reliable", false, "enable the repair-reliability protocol (retransmission, heartbeats, failover)")
	battery := fs.Float64("battery", 0, "per-robot battery capacity in joules (0 = energy layer off); adds the energy columns")
	recharge := fs.Float64("recharge", 250, "depot recharge watts when -battery is set (0 = starvation mode)")
	invariants := fs.Bool("invariants", false, "run the conservation-law checker per run; adds a violations column and exits nonzero on any")
	telemetryOn := fs.Bool("telemetry", false, "enable per-run telemetry collection")
	timeseries := fs.String("timeseries", "", "write per-run recorded time series to this CSV file (implies -telemetry)")
	sampleEvery := fs.Float64("sample-every", 0, "flight-recorder (and so -timeseries) sampling cadence in sim seconds (0 = default 250)")
	progress := fs.Bool("progress", false, "print live grid progress to stderr")
	journalPath := fs.String("journal", "", "journal completed runs to this file (crash-safe; an existing matching journal is resumed)")
	resume := fs.Bool("resume", false, "require -journal to already exist and resume it (error when absent)")
	ckptDir := fs.String("checkpoint-dir", "", "snapshot each running job's simulator state into this directory (with -checkpoint-every)")
	ckptEvery := fs.Float64("checkpoint-every", 0, "per-job snapshot period in simulated seconds (0 = no mid-job snapshots)")
	ftdcDir := fs.String("ftdc", "", "arm black-box flight recording on every run; runs that panic or violate invariants dump job-NNNNNN.ftdc here (decode with ftdcdump)")
	scale := fs.Int("scale", 1, "multiply sensors-per-robot by this factor, growing the field to keep density (stress runs)")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to file")
	memprofile := fs.String("memprofile", "", "write heap profile to file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	vals, err := parseFloats(*values)
	if err != nil {
		return err
	}
	var plan *chaos.FaultPlan
	if *fault != "" {
		plan, err = chaos.Parse(*fault)
		if err != nil {
			return err
		}
	}
	var algs []roborepair.Algorithm
	if *algsFlag == "all" {
		algs = roborepair.Algorithms()
	} else {
		for _, name := range strings.Split(*algsFlag, ",") {
			a, err := roborepair.ParseAlgorithm(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			algs = append(algs, a)
		}
	}

	prof, err := runner.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
	}()

	var jobs []runner.Job
	for _, alg := range algs {
		for _, v := range vals {
			for seed := int64(1); seed <= int64(*seeds); seed++ {
				cfg := roborepair.DefaultConfig()
				cfg.Algorithm = alg
				cfg.SimTime = *simtime
				cfg.Seed = seed
				cfg.Faults = plan
				if *scale > 1 {
					// Same sensor density on a larger field: more nodes,
					// more events, unchanged per-node physics.
					cfg.SensorsPerRobot *= *scale
					cfg.AreaPerRobotSide *= math.Sqrt(float64(*scale))
				}
				cfg.Reliability.Enabled = *reliable
				cfg.Invariants.Enabled = *invariants
				if *battery > 0 {
					cfg.Battery = &roborepair.BatteryConfig{CapacityJ: *battery, RechargeW: *recharge}
				}
				cfg.Telemetry.Enabled = *telemetryOn || *timeseries != ""
				cfg.Recorder.SamplePeriodS = *sampleEvery
				if err := apply(&cfg, *param, v); err != nil {
					return err
				}
				jobs = append(jobs, runner.Job{Config: cfg, Tag: cell{value: v}})
			}
		}
	}

	ropts := runner.Options{Procs: *procs, CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, FTDCDir: *ftdcDir}
	if *progress {
		ropts.Progress = runner.ProgressWriter(os.Stderr)
		ropts.ProgressEvery = 250 * time.Millisecond
	}
	if *resume && *journalPath == "" {
		return fmt.Errorf("-resume requires -journal")
	}
	if *journalPath != "" {
		if *timeseries != "" {
			// Journaled results round-trip through JSON, which cannot carry
			// the live telemetry collector a resumed -timeseries would need.
			return fmt.Errorf("-journal cannot be combined with -timeseries")
		}
		if *resume {
			if _, err := os.Stat(*journalPath); err != nil {
				return fmt.Errorf("-resume: %w", err)
			}
		}
		j, err := runner.OpenJournal(*journalPath, jobs)
		if err != nil {
			if errors.Is(err, runner.ErrJournalMismatch) {
				// The journal's completed runs belong to some other grid: no
				// row of this sweep can be trusted from it. Say so in the
				// output stream, then fail.
				fmt.Printf("# resume aborted, no rows emitted: %v\n", err)
			}
			return err
		}
		defer j.Close()
		if *resume && j.Completed() > 0 {
			fmt.Fprintf(os.Stderr, "sweep: resuming %s: %d/%d runs already journaled\n",
				*journalPath, j.Completed(), len(jobs))
		}
		ropts.Journal = j
	}
	results, st, err := runner.Run(jobs, ropts)
	if st.FTDCDumps > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d anomalous runs dumped flight recordings to %s (decode with ftdcdump)\n",
			st.FTDCDumps, *ftdcDir)
	}
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprintln(os.Stderr, st.String())
	}
	if *timeseries != "" {
		if err := writeTimeSeries(*timeseries, *param, results); err != nil {
			return err
		}
	}

	header := "algorithm,param,value,seed,failures,reports_delivered,repairs," +
		"travel_per_failure_m,report_hops,request_hops,update_tx_per_failure,repair_delay_s"
	degraded := plan != nil || *reliable
	if degraded {
		header += ",unrepaired,dup_repairs,stranded,requeued,report_retx,abandoned,redispatches,takeovers,recovery_s"
	}
	if *battery > 0 {
		header += ",robot_deaths,recharges,handoffs,energy_spent_j"
	}
	if *invariants {
		header += ",violations"
	}
	fmt.Println(header)
	violations := 0
	for _, r := range results {
		res := r.Res
		fmt.Printf("%s,%s,%g,%d,%d,%d,%d,%.2f,%.3f,%.3f,%.2f,%.1f",
			r.Job.Config.Algorithm, *param, r.Job.Tag.(cell).value, r.Job.Config.Seed,
			res.FailuresInjected, res.ReportsDelivered, res.Repairs,
			res.AvgTravelPerFailure, res.AvgReportHops, res.AvgRequestHops,
			res.LocUpdateTxPerFailure, res.AvgRepairDelay)
		if degraded {
			fmt.Printf(",%d,%d,%d,%d,%d,%d,%d,%d,%.1f",
				res.UnrepairedFailures, res.DuplicateRepairs, res.StrandedTasks,
				res.RequeuedTasks, res.ReportRetx, res.ReportsAbandoned,
				res.Redispatches, res.ManagerTakeovers, res.MeanFaultRecovery)
		}
		if *battery > 0 {
			fmt.Printf(",%d,%d,%d,%.0f",
				res.RobotDeaths, res.Recharges, res.TaskHandoffs, res.EnergySpentJ)
		}
		if *invariants {
			fmt.Printf(",%d", len(res.Violations))
			violations += len(res.Violations)
			for _, v := range res.Violations {
				fmt.Fprintln(os.Stderr, "violation:", v)
			}
		}
		fmt.Println()
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violations across the grid", violations)
	}
	return nil
}

// writeTimeSeries dumps every run's recorded time series into one CSV,
// each row prefixed with the run-identifying columns. Results arrive in
// stable input order and sampling is driven by sim time, so the file is
// byte-identical whatever the worker count.
func writeTimeSeries(path, param string, results []runner.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	wroteHeader := false
	var csv bytes.Buffer
	for _, r := range results {
		if r.Err != nil || r.Res.Telemetry == nil {
			continue
		}
		csv.Reset()
		if err := r.Res.Telemetry.WriteCSV(&csv); err != nil {
			return err
		}
		header, rows, _ := strings.Cut(csv.String(), "\n")
		if !wroteHeader {
			if _, err := fmt.Fprintf(f, "algorithm,param,value,seed,%s\n", header); err != nil {
				return err
			}
			wroteHeader = true
		}
		prefix := fmt.Sprintf("%s,%s,%g,%d,",
			r.Job.Config.Algorithm, param, r.Job.Tag.(cell).value, r.Job.Config.Seed)
		for _, row := range strings.SplitAfter(rows, "\n") {
			if row == "" {
				continue
			}
			if _, err := fmt.Fprint(f, prefix, row); err != nil {
				return err
			}
		}
	}
	return f.Close()
}

func apply(cfg *roborepair.Config, param string, v float64) error {
	switch param {
	case "robots":
		cfg.Robots = int(v)
	case "lifetime":
		cfg.MeanLifetime = v
	case "threshold":
		cfg.UpdateThreshold = v
	case "loss":
		cfg.LossP = v
	case "density":
		cfg.SensorsPerRobot = int(v)
	case "cargo":
		cfg.CargoCapacity = int(v)
	case "sensing":
		cfg.SensingRange = v
	default:
		return fmt.Errorf("unknown -param %q", param)
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
