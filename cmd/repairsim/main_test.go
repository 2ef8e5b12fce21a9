package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"roborepair/internal/analysis"
	"roborepair/internal/ftdc"
)

// TestTelemetryArtifacts runs a small telemetered simulation with every
// exporter armed, then checks that the Chrome trace parses, the Prometheus
// text scrapes, and the time-series CSV is well formed — and is exactly
// the run's flight recording rendered as CSV (one time-series store).
// make telemetry-smoke runs it.
func TestTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	err := run([]string{"-alg", "centralized", "-simtime", "4000", "-telemetry",
		"-prom", path("metrics.txt"),
		"-timeseries", path("timeseries.csv"),
		"-chrome-trace", path("trace.json"),
		"-ftdc", path("telemetry.ftdc")})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		check func(io.Reader) error
	}{
		{"trace.json", analysis.CheckChromeTrace},
		{"metrics.txt", analysis.CheckPrometheus},
		{"timeseries.csv", func(r io.Reader) error { return analysis.CheckCSV(r, "t_s") }},
	} {
		f, err := os.Open(path(c.name))
		if err != nil {
			t.Fatal(err)
		}
		err = c.check(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	rec, err := ftdc.ReadFile(path("telemetry.ftdc"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ftdc.WriteCSV(&got, rec); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path("timeseries.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the flight recording rendered as CSV (%d bytes) differs from the -timeseries file (%d bytes)", got.Len(), len(want))
	}
}
