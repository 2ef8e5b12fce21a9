package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// smokeHorizon shortens each workload while keeping its failures, repairs
// and fault windows inside the run.
var smokeHorizon = map[string]float64{
	"paper-dynamic16":    400,
	"observed-dynamic16": 400,
	"hostile-central16":  300,
	"megafield-100k":     2,
}

// observerBuckets are the packages that run only when observers are on.
var observerBuckets = []string{"telemetry", "ftdc", "invariant", "trace", "energy"}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, wl := range workloads {
		ours = append(ours, wl.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	for _, c := range []struct {
		what string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", c.what, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.what, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmoke runs every workload briefly, timed and traced: every metric
// must be reported with its unit, the results check must pass, and layers
// that are off must read zero.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			h := smokeHorizon[wl.name]
			timed, err := timeWorkload(wl, defaultSeed, h, time.Nanosecond)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, "timed", timed, endToEnd)
			for _, d := range endToEnd {
				if v := timed.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("timed: %s = %v, want > 0", d.name, v)
				}
			}
			traced, err := traceWorkload(wl, defaultSeed, h, time.Nanosecond)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, "traced", traced, perLayer)
			zero := func(names ...string) {
				for _, n := range names {
					if v := traced.Metrics[n].Value; v != 0 {
						t.Errorf("traced: %s = %v, want 0", n, v)
					}
				}
			}
			wire := []string{"wire.corrupt_frames", "wire.malformed_drops", "wire.malformed_per_rx", "cpu_share.wire", "alloc_share.wire"}
			switch wl.name {
			case "hostile-central16":
				for _, n := range wire[:3] {
					if traced.Metrics[n].Value == 0 {
						t.Errorf("traced: %s = 0 on a corrupting channel", n)
					}
				}
			case "paper-dynamic16":
				zero(wire...)
				for _, b := range observerBuckets {
					zero("cpu_share."+b, "alloc_share."+b)
				}
			default:
				zero(wire...)
			}
		})
	}
}

func checkReport(t *testing.T, what string, rep *report, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 {
		t.Errorf("%s: correct %v, %d of %d runs failed: %v", what, rep.Correct, rep.Failed, rep.Attempted, rep.problems)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, want %d", what, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: %s reported as %+v, want unit %s", what, d.name, m, d.unit)
		}
	}
}

func TestProxiesPreserveResults(t *testing.T) {
	for _, wl := range workloads {
		cfg, err := wl.config(7, smokeHorizon[wl.name])
		if err != nil {
			t.Fatal(err)
		}
		plain, err := plainRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracedRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fingerprint(plain), fingerprint(tr.res); a != b {
			t.Errorf("%s: traced fingerprint %s, untraced %s", wl.name, b, a)
		}
		if tr.spans.rx[kindSensor] == 0 || tr.spans.rx[kindRobot] == 0 {
			t.Errorf("%s: proxies saw no receptions: %v", wl.name, tr.spans.rx)
		}
	}
}

func TestBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "roborepair/internal/wire.FrameCodec.Decode", "roborepair/internal/radio.(*Medium).handoff"}, "wire"},
		{[]string{"hash/crc32.update", "roborepair/internal/wire.checksum"}, "wire"},
		{[]string{"runtime.mapaccess2", "roborepair/internal/scenario.New.func1"}, "scenario"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"roborepair/internal/viz.Render"}, "other"},
		{[]string{"main.main", "runtime.main"}, "other"},
	} {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestAgree(t *testing.T) {
	for _, c := range []struct {
		sum, measured, tol float64
		ok                 bool
	}{
		{1.02, 1, 0.05, true},
		{0.96, 1, 0.05, true},
		{1.2, 1, 0.05, false},
		{0.5, 1, 0.05, false},
		{0, 0, 0.05, true},
		{1, 0, 0.05, false},
	} {
		r := &report{Correct: true}
		r.agree("parts", c.sum, c.measured, c.tol)
		if r.Correct != c.ok {
			t.Errorf("agree(%v, %v, %v): correct %v, want %v", c.sum, c.measured, c.tol, r.Correct, c.ok)
		}
	}
}
