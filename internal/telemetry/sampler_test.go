package telemetry

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"roborepair/internal/sim"
)

func TestSamplerCadenceAndBaseline(t *testing.T) {
	sched := sim.NewScheduler()
	c := NewCollector(Config{Enabled: true, SamplePeriodS: 100, RingCapacity: 16})
	ticks := 0.0
	c.Gauge("ticks", func() float64 { ticks++; return ticks })
	c.Gauge("clock", func() float64 { return float64(sched.Now()) })
	if err := c.Start(sched); err != nil {
		t.Fatal(err)
	}
	sched.Run(450)
	// Baseline sample at t=0 plus one per 100 s: 0,100,200,300,400.
	if got := c.Sampler().Times(); !reflect.DeepEqual(got, []float64{0, 100, 200, 300, 400}) {
		t.Fatalf("sample times = %v", got)
	}
	if got := c.Sampler().Series("clock"); !reflect.DeepEqual(got, []float64{0, 100, 200, 300, 400}) {
		t.Fatalf("clock series = %v", got)
	}
	if v, ok := c.Sampler().Last("ticks"); !ok || v != 5 {
		t.Fatalf("last ticks = %v,%v", v, ok)
	}
	if c.Counter("telemetry_samples").Value() != 5 {
		t.Fatalf("samples counter = %d", c.Counter("telemetry_samples").Value())
	}
}

func TestSamplerRingEviction(t *testing.T) {
	sched := sim.NewScheduler()
	c := NewCollector(Config{Enabled: true, SamplePeriodS: 10, RingCapacity: 4})
	c.Gauge("clock", func() float64 { return float64(sched.Now()) })
	if err := c.Start(sched); err != nil {
		t.Fatal(err)
	}
	sched.Run(75) // samples at 0,10,...,70 → 8 rows, ring keeps last 4
	sp := c.Sampler()
	if sp.Len() != 4 {
		t.Fatalf("len = %d", sp.Len())
	}
	if sp.Dropped() != 4 {
		t.Fatalf("dropped = %d", sp.Dropped())
	}
	if got := sp.Times(); !reflect.DeepEqual(got, []float64{40, 50, 60, 70}) {
		t.Fatalf("times after eviction = %v", got)
	}
	if got := sp.MaxOf("clock"); got != 70 {
		t.Fatalf("MaxOf = %v", got)
	}
}

func TestSamplerUnknownGauge(t *testing.T) {
	sp := newSampler(10, 4)
	if s := sp.Series("nope"); s != nil {
		t.Fatalf("unknown series = %v", s)
	}
	if _, ok := sp.Last("nope"); ok {
		t.Fatal("unknown gauge reported a value")
	}
}

func TestCollectorSummary(t *testing.T) {
	c := NewCollector(Config{Enabled: true})
	c.LogHistogram("repair_delay_s", 8, 16).Add(42)
	s := c.Summary()
	if !strings.Contains(s, "repair_delay_s") || !strings.Contains(s, "timeseries_samples") {
		t.Fatalf("summary missing sections:\n%s", s)
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	var zero Config
	if zero.WithDefaults() != zero {
		t.Fatal("zero config must stay zero (disabled)")
	}
	d := Config{Enabled: true}.WithDefaults()
	if d.SamplePeriodS != 250 || d.RingCapacity != 4096 {
		t.Fatalf("defaults = %+v", d)
	}
	for _, p := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := (Config{SamplePeriodS: p}).Validate(); err == nil {
			t.Fatalf("sample period %v validated", p)
		}
	}
	if err := (Config{RingCapacity: -1}).Validate(); err == nil {
		t.Fatal("negative capacity validated")
	}
}
