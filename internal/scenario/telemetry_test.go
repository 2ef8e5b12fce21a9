package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/telemetry"
	"roborepair/internal/trace"
)

func telTestConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = core.Dynamic
	cfg.SimTime = 3000
	cfg.MeanLifetime = 4000
	cfg.Seed = seed
	return cfg
}

// resultsJSON fingerprints Results; the Registry and Telemetry fields are
// excluded from JSON, so this captures exactly the reported quantities.
func resultsJSON(t *testing.T, r Results) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTelemetryDoesNotPerturbResults is the layer's core contract: turning
// telemetry on must not change a single reported quantity. The recorder it
// arms rides the same scheduler but only reads state.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		cfg := telTestConfig(11)
		cfg.Algorithm = alg
		off, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Telemetry.Enabled = true
		on, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Results echoes the Config, which legitimately differs in the
		// telemetry field; normalize it so only simulated quantities compare.
		on.Config.Telemetry = telemetry.Config{}
		if a, b := resultsJSON(t, off), resultsJSON(t, on); a != b {
			t.Fatalf("%v: telemetry changed the results:\noff: %s\non:  %s", alg, a, b)
		}
		if on.Telemetry == nil {
			t.Fatalf("%v: enabled run carries no collector", alg)
		}
		if off.Telemetry != nil {
			t.Fatalf("%v: disabled run carries a collector", alg)
		}
	}
}

// TestTelemetryOffAllocations guards the disabled path: with the zero
// config, a full run must stay under a recorded allocation ceiling — a
// per-event telemetry leak multiplies the count by the event volume and
// blows far past it. The ceiling is the measured baseline (~258k for this
// config) plus headroom for runtime noise; AllocsPerRun itself jitters by
// a few allocations, so exact equality is deliberately not asserted.
func TestTelemetryOffAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run allocation measurement")
	}
	cfg := telTestConfig(3)
	run := func() float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	run() // warm up lazy runtime state
	allocs := run()
	const ceiling = 300_000
	if allocs > ceiling {
		t.Fatalf("telemetry-off run allocated %v, ceiling %v — did instrumentation leak into the disabled path?", allocs, ceiling)
	}
}

// TestTelemetryHistogramsPopulated checks the hook feeds end-to-end: a run
// with failures and repairs must land observations in every histogram that
// has a source in the run (retx stays empty without the reliability
// protocol).
func TestTelemetryHistogramsPopulated(t *testing.T) {
	cfg := telTestConfig(5)
	cfg.Telemetry.Enabled = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repairs == 0 {
		t.Fatal("run produced no repairs; pick a harsher config")
	}
	c := res.Telemetry
	for _, name := range []string{TelHistRepairDelay, TelHistReportHops, TelHistTripMeters} {
		h := c.Hist(name)
		if h == nil || h.N() == 0 {
			t.Fatalf("histogram %s empty", name)
		}
	}
	if got, want := int(c.Hist(TelHistRepairDelay).N()), res.Repairs; got != want {
		t.Fatalf("repair delay observations = %d, repairs = %d", got, want)
	}
	if c.Hist(TelHistReportRetx).N() != 0 {
		t.Fatal("retx histogram fed without the reliability protocol")
	}
	rec, err := res.Recording.Recording()
	if err != nil {
		t.Fatal(err)
	}
	if rec.NumRows() == 0 {
		t.Fatal("recording holds nothing")
	}
	for _, name := range []string{GaugeEventQueueDepth, FTDCColEventsFired} {
		if slices.Max(rec.Column(name)) == 0 {
			t.Fatalf("%s never recorded above zero", name)
		}
	}
}

// TestTelemetryTimeSeriesDeterministicAcrossRepeats locks the export
// contract at the single-run level: the same (config, seed) renders a
// byte-identical CSV run-to-run. The worker-count variant lives in the
// runner package (which depends on this one).
func TestTelemetryTimeSeriesDeterministicAcrossRepeats(t *testing.T) {
	render := func() []byte {
		cfg := telTestConfig(2)
		cfg.Telemetry.Enabled = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.Telemetry.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatalf("time series differ between identical runs:\nrun1:\n%s\nrun2:\n%s", a, b)
	}
}

// TestTelemetryPrometheusExport scrapes a real run's exposition text.
func TestTelemetryPrometheusExport(t *testing.T) {
	cfg := telTestConfig(5)
	cfg.Telemetry.Enabled = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := telemetry.WritePrometheus(&b, res.Registry, res.Telemetry); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"roborepair_repair_delay_seconds_bucket",
		"roborepair_pending_failures",
		"roborepair_tx_total{",
	} {
		if !bytes.Contains(b.Bytes(), []byte(want)) {
			t.Fatalf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

// TestTelemetryConfigValidation rejects a negative time-series cadence
// (the recorder's) via the scenario-level Validate.
func TestTelemetryConfigValidation(t *testing.T) {
	cfg := telTestConfig(1)
	cfg.Telemetry.Enabled = true
	cfg.Recorder.SamplePeriodS = -5
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative sample period accepted")
	}
}

// TestDuplicateVisitAccounting pins how duplicate visits are counted: a
// mid-field blackout makes live sensors look dead, so robots drive to
// sites a live sensor still covers. Every trip lands in the trip
// histogram, only replacements in the repair-delay histogram and the
// trace, and the invariant checker accepts the books.
func TestDuplicateVisitAccounting(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Fixed, core.Dynamic, core.Centralized} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := quickConfig(alg, 4)
			cfg.Seed = 1
			cfg.MeanLifetime = cfg.SimTime / 2
			cfg.Reliability.Enabled = true
			cfg.Telemetry.Enabled = true
			cfg.Invariants.Enabled = true
			cfg.TraceCapacity = -1
			side := cfg.FieldSide()
			plan, err := chaos.Parse(fmt.Sprintf("blackout@2000-4000=%g,%g,%g", side/2, side/2, side/4))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
			w, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := w.Run()
			t.Logf("repairs %d, duplicates %d", res.Repairs, res.DuplicateRepairs)
			if res.Repairs == 0 || res.DuplicateRepairs == 0 {
				t.Fatalf("repairs %d, duplicates %d: the blackout must cause both", res.Repairs, res.DuplicateRepairs)
			}
			if n := w.Telemetry.Hist(TelHistTripMeters).N(); n != res.Repairs+res.DuplicateRepairs {
				t.Errorf("%s N = %d, want repairs + duplicates = %d", TelHistTripMeters, n, res.Repairs+res.DuplicateRepairs)
			}
			if n := w.Telemetry.Hist(TelHistRepairDelay).N(); n != res.Repairs {
				t.Errorf("%s N = %d, want repairs = %d", TelHistRepairDelay, n, res.Repairs)
			}
			if n := w.Trace.Count(trace.KindReplacement); n != res.Repairs {
				t.Errorf("traced replacements = %d, want repairs = %d", n, res.Repairs)
			}
			if len(res.Violations) != 0 {
				t.Errorf("violations: %v", res.Violations)
			}
		})
	}
}
