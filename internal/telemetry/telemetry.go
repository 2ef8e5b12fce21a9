// Package telemetry is the simulator's observability layer: log-bucketed
// latency histograms, named counters, a sim-time gauge sampler with ring
// buffers, and exporters (Prometheus text, CSV time-series, Chrome
// trace_event JSON).
//
// The layer is opt-in and near-zero-overhead: the zero Config disables
// everything, no Collector is built, and the instrumented hot paths reduce
// to a nil check — runs with telemetry off reproduce the untelemetered
// simulator's behavior and allocation counts bit-for-bit. All sampling is
// driven by the virtual clock and reads only deterministic simulation
// state, so telemetry output for a fixed (Config, Seed) is byte-identical
// whatever the worker count of the surrounding experiment grid.
package telemetry

import (
	"fmt"
	"math"

	"roborepair/internal/sim"
)

// Config parameterizes the telemetry layer of one run. The zero value
// disables telemetry entirely.
type Config struct {
	// Enabled switches the whole layer on.
	Enabled bool `json:"enabled,omitempty"`
	// SamplePeriodS is the sim-time gauge sampling cadence in seconds
	// (default 250 when Enabled).
	SamplePeriodS float64 `json:"samplePeriodS,omitempty"`
	// RingCapacity bounds the retained time-series samples per gauge
	// (FIFO eviction; default 4096 when Enabled — enough for a 64000 s
	// run at the default cadence with a wide margin).
	RingCapacity int `json:"ringCapacity,omitempty"`
}

// WithDefaults fills unset knobs with the documented defaults.
func (c Config) WithDefaults() Config {
	if !c.Enabled {
		return c
	}
	if c.SamplePeriodS <= 0 {
		c.SamplePeriodS = 250
	}
	if c.RingCapacity <= 0 {
		c.RingCapacity = 4096
	}
	return c
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if math.IsNaN(c.SamplePeriodS) || math.IsInf(c.SamplePeriodS, 0) || c.SamplePeriodS < 0 {
		return fmt.Errorf("telemetry: sample period %v not a finite non-negative value", c.SamplePeriodS)
	}
	if c.RingCapacity < 0 {
		return fmt.Errorf("telemetry: ring capacity %d negative", c.RingCapacity)
	}
	return nil
}

// Counter is a named monotonic count.
type Counter struct {
	name string
	n    uint64
}

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.n += n }

// Value reports the count.
func (c *Counter) Value() uint64 { return c.n }

// Name reports the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Collector owns one run's telemetry: histograms, counters, and the gauge
// sampler. It is not safe for concurrent use (the simulation is
// single-threaded); distinct runs own distinct Collectors.
type Collector struct {
	cfg Config

	histNames    []string // registration order
	hists        map[string]*LogHistogram
	counterNames []string
	counters     map[string]*Counter

	sampler *Sampler
	samples *Counter
}

// NewCollector builds a collector for an enabled configuration.
func NewCollector(cfg Config) *Collector {
	cfg = cfg.WithDefaults()
	c := &Collector{
		cfg:      cfg,
		hists:    make(map[string]*LogHistogram),
		counters: make(map[string]*Counter),
		sampler:  newSampler(sim.Duration(cfg.SamplePeriodS), cfg.RingCapacity),
	}
	c.samples = c.Counter("telemetry_samples")
	return c
}

// Config reports the collector's effective (defaulted) configuration.
func (c *Collector) Config() Config { return c.cfg }

// LogHistogram returns (lazily creating) the named histogram. First/
// buckets apply only at creation; see NewLogHistogram.
func (c *Collector) LogHistogram(name string, first float64, buckets int) *LogHistogram {
	if h, ok := c.hists[name]; ok {
		return h
	}
	h := NewLogHistogram(first, buckets)
	h.name = name
	c.hists[name] = h
	c.histNames = append(c.histNames, name)
	return h
}

// Hist returns the named histogram, or nil when absent.
func (c *Collector) Hist(name string) *LogHistogram { return c.hists[name] }

// HistNames lists the registered histograms in registration order.
func (c *Collector) HistNames() []string { return append([]string(nil), c.histNames...) }

// Counter returns (lazily creating) the named counter.
func (c *Collector) Counter(name string) *Counter {
	if ct, ok := c.counters[name]; ok {
		return ct
	}
	ct := &Counter{name: name}
	c.counters[name] = ct
	c.counterNames = append(c.counterNames, name)
	return ct
}

// CounterNames lists the registered counters in registration order.
func (c *Collector) CounterNames() []string { return append([]string(nil), c.counterNames...) }

// Gauge registers a named gauge; fn is called at every sampling tick and
// must read only deterministic simulation state. Register all gauges
// before Start.
func (c *Collector) Gauge(name string, fn func() float64) {
	c.sampler.register(name, fn)
}

// Start arms the sampling ticker on the scheduler: one snapshot of every
// gauge at virtual time 0 (the baseline row) and every SamplePeriodS
// thereafter. Ring buffers are pre-sized here so steady-state sampling
// allocates nothing.
func (c *Collector) Start(sched *sim.Scheduler) error {
	return c.sampler.arm(sched, func() { c.samples.Add(1) })
}

// Sampler exposes the time-series sampler (for exporters).
func (c *Collector) Sampler() *Sampler { return c.sampler }

// Summary renders a compact human-readable digest of the histograms.
func (c *Collector) Summary() string {
	out := ""
	for _, name := range c.histNames {
		out += fmt.Sprintf("%-24s %s\n", name, c.hists[name])
	}
	out += fmt.Sprintf("%-24s n=%d (period %gs, %d gauges)\n",
		"timeseries_samples", c.sampler.Len(), float64(c.sampler.period), len(c.sampler.names))
	return out
}
