// Command repairsim runs one sensor-replacement simulation and prints its
// results.
//
// Usage:
//
//	repairsim -alg dynamic -robots 9 -simtime 64000 -seed 1 [-v]
//
// Robustness runs inject a fault plan and enable the reliability protocol:
//
//	repairsim -alg dynamic -reliable -fault 'robot@4000=0;burst@4000-8000=0.05'
//
// Energy-constrained runs give each robot a finite battery: dispatches are
// admission-checked against the remaining charge, robots detour to the
// depot charger when low (or die in place without one), and drain windows
// become live chaos:
//
//	repairsim -alg dynamic -battery 30000 -recharge 250 -fault 'drain@4000-8000=0.5'
//
// Checkpoint/restore: periodically snapshot the full simulator state, then
// resume a killed run — or replay its tail with a fresh trace for
// debugging — from the latest snapshot:
//
//	repairsim -alg dynamic -checkpoint run.ckpt -checkpoint-every 8000
//	repairsim -restore run.ckpt
//	repairsim -restore run.ckpt -tail-trace 200   # print the continuation's events
//
// Flight recording: -ftdc arms the always-on black box and writes the
// whole run's compact binary time series, decodable with ftdcdump:
//
//	repairsim -alg dynamic -ftdc run.ftdc && ftdcdump run.ftdc
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"strings"

	"roborepair"
	"roborepair/internal/chaos"
	"roborepair/internal/checkpoint"
	"roborepair/internal/scenario"
	"roborepair/internal/sim"
	"roborepair/internal/telemetry"
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
		fmt.Fprintln(os.Stderr, "repairsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repairsim", flag.ContinueOnError)
	cfg := roborepair.DefaultConfig()

	algName := fs.String("alg", cfg.Algorithm.String(), "algorithm: "+algNames())
	fs.IntVar(&cfg.Robots, "robots", cfg.Robots, "number of maintenance robots")
	fs.Float64Var(&cfg.SimTime, "simtime", cfg.SimTime, "simulated seconds")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.Float64Var(&cfg.MeanLifetime, "lifetime", cfg.MeanLifetime, "mean sensor lifetime (s)")
	fs.Float64Var(&cfg.UpdateThreshold, "threshold", cfg.UpdateThreshold, "robot location-update threshold (m)")
	fs.Float64Var(&cfg.LossP, "loss", 0, "per-reception loss probability")
	fs.IntVar(&cfg.SensorsPerRobot, "density", cfg.SensorsPerRobot, "sensors per robot's worth of area")
	hex := fs.Bool("hex", false, "use hexagonal partition (fixed algorithm)")
	efficient := fs.Bool("efficient-broadcast", false, "enable the §4.3.2 relay-set optimization")
	fs.Float64Var(&cfg.SensingRange, "sensing", 0, "sensing radius (m); >0 tracks coverage")
	fs.IntVar(&cfg.CargoCapacity, "cargo", 0, "robot cargo capacity; 0 = unlimited")
	fault := fs.String("fault", "", "fault plan, e.g. 'robot@4000=0;burst@4000-8000=0.05;blackout@2000-3000=100,100,80;mgr@9000;corrupt@4000-8000=0.05,mix;drain@4000-8000=0.5,2'")
	fs.BoolVar(&cfg.Reliability.Enabled, "reliable", false, "enable the repair-reliability protocol (retransmission, heartbeats, failover)")
	battery := fs.Float64("battery", 0, "per-robot battery capacity in joules (0 = energy layer off)")
	recharge := fs.Float64("recharge", 250, "depot recharge watts when -battery is set (0 = starvation mode)")
	fs.BoolVar(&cfg.Invariants.Enabled, "invariants", false, "run the conservation-law checker; violations print and exit nonzero")
	telemetryOn := fs.Bool("telemetry", false, "enable telemetry and print its summary")
	prom := fs.String("prom", "", "write metrics in Prometheus text format to this file (implies -telemetry)")
	timeseries := fs.String("timeseries", "", "write the recorded time series to this CSV file (implies -telemetry)")
	chromeTrace := fs.String("chrome-trace", "", "write a Chrome trace_event JSON to this file, for chrome://tracing or ui.perfetto.dev (implies -telemetry)")
	ftdcPath := fs.String("ftdc", "", "write the run's flight-recorder capture (compact binary time series) to this file; decode with ftdcdump")
	verbose := fs.Bool("v", false, "dump the full metrics registry")
	asJSON := fs.Bool("json", false, "emit results as JSON")
	ckptPath := fs.String("checkpoint", "", "snapshot the full simulator state to this file periodically (atomic replace; the file holds the latest snapshot)")
	ckptEvery := fs.Float64("checkpoint-every", 0, "snapshot period in simulated seconds (0 = simtime/8)")
	restorePath := fs.String("restore", "", "resume from a snapshot file instead of starting fresh; the configuration comes from the snapshot and config flags are ignored")
	tailTrace := fs.Int("tail-trace", 0, "with -restore: record the continuation in a trace ring of this capacity and print it (replay-from-snapshot debugging)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *prom != "" || *timeseries != "" || *chromeTrace != "" {
		*telemetryOn = true
	}
	cfg.Telemetry.Enabled = *telemetryOn
	cfg.Recorder.Enabled = *ftdcPath != ""
	if *chromeTrace != "" && cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = -1 // the exporter needs the full causal log
	}
	if *fault != "" {
		plan, err := chaos.Parse(*fault)
		if err != nil {
			return err
		}
		cfg.Faults = plan
	}

	alg, err := roborepair.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	cfg.Algorithm = alg
	if *hex {
		cfg.Partition = roborepair.PartitionHex
	}
	cfg.EfficientBroadcast = *efficient
	if *battery > 0 {
		cfg.Battery = &roborepair.BatteryConfig{CapacityJ: *battery, RechargeW: *recharge}
	}

	var w *roborepair.World
	var res roborepair.Results
	switch {
	case *restorePath != "":
		snap, err := checkpoint.ReadFile(*restorePath)
		if err != nil {
			return err
		}
		w, err = scenario.RestoreOpts(snap, scenario.RestoreOptions{TailTraceCapacity: *tailTrace})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "repairsim: restored %s at t=%.0f s, running to %.0f s\n",
			*restorePath, snap.T, w.Cfg.SimTime)
		res = w.Run()
	case *ckptPath != "":
		w, err = roborepair.NewWorld(cfg)
		if err != nil {
			return err
		}
		every := *ckptEvery
		if every <= 0 {
			every = cfg.SimTime / 8
		}
		res, err = w.RunCheckpointed(scenario.CheckpointOptions{
			Every: sim.Duration(every),
			OnSnapshot: func(s *checkpoint.Snapshot) error {
				return checkpoint.WriteFile(*ckptPath, s)
			},
		})
		if err != nil {
			return err
		}
	default:
		w, err = roborepair.NewWorld(cfg)
		if err != nil {
			return err
		}
		res = w.Run()
	}
	if *restorePath != "" && *tailTrace != 0 {
		fmt.Print(w.Trace.Render(*tailTrace))
	}
	if err := export(w, res, *prom, *timeseries, *chromeTrace); err != nil {
		return err
	}
	if *ftdcPath != "" {
		if res.Recording == nil {
			// Reachable only via -restore from a snapshot taken without the
			// recorder armed: the configuration comes from the snapshot.
			return fmt.Errorf("-ftdc: the restored run was not recording")
		}
		if err := res.Recording.WriteFile(*ftdcPath); err != nil {
			return err
		}
	}
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "violation:", v)
		}
		return fmt.Errorf("%d invariant violations", len(res.Violations))
	}
	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	fmt.Println(res.Summary())
	fmt.Printf("total travel: %.1f m   report delivery: %.3f   repair ratio: %.3f   avg repair delay: %.1f s\n",
		res.TotalTravel, res.ReportDeliveryRatio(), res.RepairRatio(), res.AvgRepairDelay)
	if cfg.SensingRange > 0 {
		fmt.Printf("coverage: mean %.3f   min %.3f (sensing radius %.0f m)\n",
			res.MeanCoverage, res.MinCoverage, cfg.SensingRange)
	}
	if cfg.Faults != nil || cfg.Reliability.Enabled {
		fmt.Printf("degradation: unrepaired %d   dup repairs %d   stranded %d (requeued %d)   "+
			"retx %d (abandoned %d)   redispatches %d   takeovers %d   mean recovery %.1f s\n",
			res.UnrepairedFailures, res.DuplicateRepairs, res.StrandedTasks, res.RequeuedTasks,
			res.ReportRetx, res.ReportsAbandoned, res.Redispatches, res.ManagerTakeovers,
			res.MeanFaultRecovery)
		if res.CorruptedFrames > 0 {
			fmt.Printf("hostile channel: corrupted %d   dropped malformed %d   replay-rejected %d\n",
				res.CorruptedFrames, res.DroppedMalformed, res.ReplayRejected)
		}
	}
	if w.Cfg.Battery != nil {
		fmt.Printf("energy: spent %.0f J   deaths %d   recharges %d   handoffs %d\n",
			res.EnergySpentJ, res.RobotDeaths, res.Recharges, res.TaskHandoffs)
	}
	if *telemetryOn {
		fmt.Print(res.Telemetry.Summary())
	}
	if *verbose {
		fmt.Print(res.Registry.Dump())
	}
	if cfg.Invariants.Enabled {
		fmt.Println("invariants: ok")
	}
	return nil
}

// export writes the requested telemetry artifacts.
func export(w *roborepair.World, res roborepair.Results, prom, timeseries, chromeTrace string) error {
	writeFile := func(path string, render func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if prom != "" {
		err := writeFile(prom, func(f *os.File) error {
			return telemetry.WritePrometheus(f, res.Registry, res.Telemetry)
		})
		if err != nil {
			return err
		}
	}
	if timeseries != "" {
		err := writeFile(timeseries, func(f *os.File) error {
			return res.Telemetry.WriteCSV(f)
		})
		if err != nil {
			return err
		}
	}
	if chromeTrace != "" {
		opt := telemetry.ChromeOptions{Collector: res.Telemetry}
		if w.Manager != nil {
			opt.ManagerID = w.Manager.ID()
		}
		err := writeFile(chromeTrace, func(f *os.File) error {
			return telemetry.WriteChromeTrace(f, w.Trace, opt)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
