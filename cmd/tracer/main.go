// Command tracer runs one traced simulation and emits the causal chain of
// every failure — failure time, detection delay, repair delay — as CSV,
// plus a repair-delay distribution summary. It is the forensic view behind
// the aggregate figures.
//
// Usage:
//
//	tracer -alg dynamic -robots 9 -simtime 16000 > chains.csv
//	tracer -summary            # distribution summary instead of CSV
//
// Fault-plan runs trace degraded behavior; -chrome-trace renders the run's
// causal log as a Chrome trace_event file with one lane per robot (open it
// in chrome://tracing or ui.perfetto.dev):
//
//	tracer -reliable -fault 'robot@4000=0;burst@4000-8000=0.05' \
//	       -chrome-trace trace.json -summary
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"roborepair"
	"roborepair/internal/scenario"
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
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracer", flag.ContinueOnError)
	cfg := roborepair.DefaultConfig()
	algName := fs.String("alg", cfg.Algorithm.String(), "algorithm: "+algNames())
	fs.IntVar(&cfg.Robots, "robots", cfg.Robots, "number of maintenance robots")
	fs.Float64Var(&cfg.SimTime, "simtime", 16000, "simulated seconds")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	summary := fs.Bool("summary", false, "print a distribution summary instead of CSV")
	fault := fs.String("fault", "", "fault plan, e.g. 'robot@4000=0;burst@4000-8000=0.05;blackout@2000-3000=100,100,80;mgr@9000'")
	fs.BoolVar(&cfg.Reliability.Enabled, "reliable", false, "enable the repair-reliability protocol (retransmission, heartbeats, failover)")
	chromeTrace := fs.String("chrome-trace", "", "write the causal log as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fault != "" {
		plan, err := roborepair.ParseFaultPlan(*fault)
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
	cfg.TraceCapacity = -1
	if *chromeTrace != "" {
		// The exporter also draws the recorded columns as counter tracks.
		cfg.Telemetry.Enabled = true
	}

	w, err := roborepair.NewWorld(cfg)
	if err != nil {
		return err
	}
	res := w.Run()
	chains := w.Trace.Chains()

	if *chromeTrace != "" {
		opt := telemetry.ChromeOptions{Collector: res.Telemetry}
		if w.Manager != nil {
			opt.ManagerID = w.Manager.ID()
		}
		f, err := os.Create(*chromeTrace)
		if err != nil {
			return err
		}
		if err := telemetry.WriteChromeTrace(f, w.Trace, opt); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracer: wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *chromeTrace)
	}

	if *summary {
		fmt.Printf("run: %s\n", res.Summary())
		if h := res.Registry.Hist(scenario.HistRepairDelay); h != nil {
			fmt.Printf("repair delay: %s\n", h)
			fmt.Printf("distribution: %s\n", h.Sparkline())
		}
		reported, repaired := 0, 0
		for _, c := range chains {
			if c.Reported {
				reported++
			}
			if c.Repaired {
				repaired++
			}
		}
		fmt.Printf("chains: %d failures, %d reported, %d repaired\n",
			len(chains), reported, repaired)
		return nil
	}

	fmt.Println("node,failure_at_s,detection_delay_s,repair_delay_s,reported,repaired")
	for _, c := range chains {
		fmt.Printf("%d,%.1f,%.1f,%.1f,%t,%t\n",
			int(c.Failed), float64(c.FailureAt),
			float64(c.DetectionDelay()), float64(c.RepairDelay()),
			c.Reported, c.Repaired)
	}
	return nil
}
