// Command telemetryck validates exported telemetry artifacts, for smoke
// tests and CI: a Chrome trace_event JSON must parse and carry well-formed
// events, a Prometheus text file must scrape (every line a comment or a
// `name[{labels}] value` sample), and a time-series CSV must be
// rectangular with a t_s column. The format checks themselves live in
// internal/analysis, shared with invck.
//
// Usage:
//
//	telemetryck -chrome trace.json -prom metrics.txt -csv series.csv
//
// Any failed check prints a diagnostic and exits nonzero; missing flags
// skip their check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"roborepair/internal/analysis"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "telemetryck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("telemetryck", flag.ContinueOnError)
	chrome := ""
	prom := ""
	csv := ""
	fs.StringVar(&chrome, "chrome", "", "Chrome trace_event JSON file to validate")
	fs.StringVar(&prom, "prom", "", "Prometheus text exposition file to validate")
	fs.StringVar(&csv, "csv", "", "time-series CSV file to validate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if chrome == "" && prom == "" && csv == "" {
		return fmt.Errorf("nothing to check; pass -chrome, -prom, and/or -csv")
	}
	checks := []struct {
		path  string
		check func(io.Reader) error
	}{
		{chrome, analysis.CheckChromeTrace},
		{prom, analysis.CheckPrometheus},
		{csv, func(r io.Reader) error { return analysis.CheckCSV(r, "t_s") }},
	}
	for _, c := range checks {
		if c.path == "" {
			continue
		}
		if err := checkFile(c.path, c.check); err != nil {
			return fmt.Errorf("%s: %w", c.path, err)
		}
		fmt.Printf("%s: ok\n", c.path)
	}
	return nil
}

func checkFile(path string, check func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return check(f)
}
