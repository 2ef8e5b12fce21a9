// Package telemetry is the simulator's observability layer: doubling-
// bucket latency histograms, plus exporters (Prometheus text, CSV
// time-series, Chrome trace_event JSON) over them and over the run's
// flight recording, which is the layer's only time-series store.
//
// The layer is opt-in and absent when off: the zero Config builds no
// Collector and puts no telemetry observer in the scenario's ordered
// observer slice — runs with telemetry off reproduce the untelemetered
// simulator's behavior and allocation counts bit-for-bit. The recording is
// sampled on the virtual clock and reads only deterministic simulation
// state, so telemetry output for a fixed (Config, Seed) is byte-identical
// whatever the worker count of the surrounding experiment grid.
package telemetry

import (
	"fmt"
	"io"

	"roborepair/internal/ftdc"
	"roborepair/internal/metrics"
)

// Config parameterizes the telemetry layer of one run. The zero value
// disables telemetry entirely. The time-series cadence is the flight
// recorder's (scenario.Config.Recorder.SamplePeriodS).
type Config struct {
	// Enabled switches the whole layer on, and with it the flight
	// recorder that holds the time series.
	Enabled bool `json:"enabled,omitempty"`
}

// Collector owns one run's telemetry: named histograms, and the flight
// recorder its time-series exporters read. It is not safe for concurrent
// use (the simulation is single-threaded); distinct runs own distinct
// Collectors.
type Collector struct {
	rec *ftdc.Recorder

	histNames []string // registration order
	hists     map[string]*metrics.Histogram
}

// NewCollector builds a collector whose time series is rec's recording.
func NewCollector(rec *ftdc.Recorder) *Collector {
	return &Collector{rec: rec, hists: make(map[string]*metrics.Histogram)}
}

// Histogram returns (lazily creating) the named doubling-bucket
// histogram. First/buckets apply only at creation; see
// metrics.NewDoublingHistogram.
func (c *Collector) Histogram(name string, first float64, buckets int) *metrics.Histogram {
	if h, ok := c.hists[name]; ok {
		return h
	}
	h := metrics.NewDoublingHistogram(first, buckets)
	c.hists[name] = h
	c.histNames = append(c.histNames, name)
	return h
}

// Hist returns the named histogram, or nil when absent.
func (c *Collector) Hist(name string) *metrics.Histogram { return c.hists[name] }

// WriteCSV renders the recording's retained samples as the time-series
// CSV (ftdc.WriteCSV).
func (c *Collector) WriteCSV(w io.Writer) error {
	rec, err := c.rec.Recording()
	if err != nil {
		return err
	}
	return ftdc.WriteCSV(w, rec)
}

// Summary renders a compact human-readable digest of the histograms and
// the recording.
func (c *Collector) Summary() string {
	out := ""
	for _, name := range c.histNames {
		out += fmt.Sprintf("%-24s %s\n", name, c.hists[name])
	}
	schema := c.rec.Schema()
	out += fmt.Sprintf("%-24s n=%d (period %gs, %d columns)\n",
		"timeseries_samples", c.rec.Rows()-c.rec.EvictedRows(), schema.PeriodS, len(schema.Cols))
	return out
}
