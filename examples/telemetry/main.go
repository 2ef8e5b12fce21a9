// Telemetry: watch a fault unfold as a time series. A regional blackout
// silences the field center for 1000 s; failures inside it go unreported,
// so the repair backlog climbs while the radios are down, then the robots
// burn it back down once reports get through. This example runs one
// telemetered simulation, prints the backlog curve around the blackout,
// and writes the full recorded time series as a gnuplot-ready CSV.
//
// Plot it:
//
//	go run ./examples/telemetry > backlog.csv
//	gnuplot -e "set datafile separator ','; set key autotitle columnhead; \
//	            plot 'backlog.csv' using 1:2 with lines" -p
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"roborepair"
)

func main() {
	plan, err := roborepair.ParseFaultPlan("blackout@2000-3000=100,100,80;robot@4000=0;burst@4000-8000=0.05")
	if err != nil {
		log.Fatal(err)
	}

	cfg := roborepair.DefaultConfig()
	cfg.Algorithm = roborepair.Dynamic
	cfg.SimTime = 24000
	cfg.Seed = 3
	cfg.Faults = plan
	cfg.Reliability.Enabled = true
	cfg.Telemetry.Enabled = true
	cfg.Recorder.SamplePeriodS = 100 // fine-grained: 241 samples over the run

	res, err := roborepair.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The CSV goes to stdout (pipe into a file for gnuplot); the
	// commentary goes to stderr so the data stays clean.
	if err := res.Telemetry.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}

	rec, err := res.Recording.Recording()
	if err != nil {
		log.Fatal(err)
	}
	times := rec.Column("t_s")
	backlog := rec.Column("pending_failures")
	peak, peakAt := 0.0, 0.0
	for i, v := range backlog {
		if v > peak {
			peak, peakAt = v, times[i]
		}
	}
	fmt.Fprintf(os.Stderr, "blackout 2000-3000 s over the field center; backlog peaks at %.0f pending (t=%.0f s)\n", peak, peakAt)
	fmt.Fprintln(os.Stderr)
	fmt.Fprintln(os.Stderr, "pending failures around the blackout:")
	for i, t := range times {
		if t < 1500 || t > 6000 {
			continue
		}
		bar := strings.Repeat("#", int(backlog[i]))
		fmt.Fprintf(os.Stderr, "  t=%5.0f s  %2.0f %s\n", t, backlog[i], bar)
	}
	fmt.Fprintln(os.Stderr)
	fmt.Fprint(os.Stderr, res.Telemetry.Summary())
}
