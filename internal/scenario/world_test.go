package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"roborepair/internal/core"
	"roborepair/internal/geom"
)

// quickConfig is a short-horizon configuration for integration tests.
func quickConfig(alg core.Algorithm, robots int) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = alg
	cfg.Robots = robots
	cfg.SimTime = 8000
	return cfg
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.AreaPerRobotSide != 200 {
		t.Errorf("area per robot side = %v, want 200", cfg.AreaPerRobotSide)
	}
	if cfg.SensorsPerRobot != 50 {
		t.Errorf("sensors per robot = %v, want 50", cfg.SensorsPerRobot)
	}
	if cfg.SensorRange != 63 {
		t.Errorf("sensor range = %v, want 63", cfg.SensorRange)
	}
	if cfg.RobotRange != 250 {
		t.Errorf("robot range = %v, want 250", cfg.RobotRange)
	}
	if cfg.RobotSpeed != 1 {
		t.Errorf("robot speed = %v, want 1", cfg.RobotSpeed)
	}
	if cfg.UpdateThreshold != 20 {
		t.Errorf("update threshold = %v, want 20", cfg.UpdateThreshold)
	}
	if cfg.BeaconPeriod != 10 {
		t.Errorf("beacon period = %v, want 10", cfg.BeaconPeriod)
	}
	if cfg.MissedBeacons != 3 {
		t.Errorf("missed beacons = %v, want 3", cfg.MissedBeacons)
	}
	if cfg.MeanLifetime != 16000 {
		t.Errorf("mean lifetime = %v, want 16000", cfg.MeanLifetime)
	}
	if cfg.SimTime != 64000 {
		t.Errorf("sim time = %v, want 64000", cfg.SimTime)
	}
}

func TestConfigValidate(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad algorithm", func(c *Config) { c.Algorithm = "bogus" }},
		{"zero robots", func(c *Config) { c.Robots = 0 }},
		{"negative area", func(c *Config) { c.AreaPerRobotSide = -1 }},
		{"zero sensors", func(c *Config) { c.SensorsPerRobot = 0 }},
		{"zero sensor range", func(c *Config) { c.SensorRange = 0 }},
		{"zero robot range", func(c *Config) { c.RobotRange = 0 }},
		{"zero speed", func(c *Config) { c.RobotSpeed = 0 }},
		{"zero threshold", func(c *Config) { c.UpdateThreshold = 0 }},
		{"zero beacon period", func(c *Config) { c.BeaconPeriod = 0 }},
		{"zero missed beacons", func(c *Config) { c.MissedBeacons = 0 }},
		{"zero lifetime", func(c *Config) { c.MeanLifetime = 0 }},
		{"zero sim time", func(c *Config) { c.SimTime = 0 }},
		{"loss ≥ 1", func(c *Config) { c.LossP = 1 }},
		{"negative loss", func(c *Config) { c.LossP = -0.1 }},
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			m.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("mutation accepted")
			}
			if _, err := New(cfg); err == nil {
				t.Fatal("New accepted invalid config")
			}
		})
	}
}

// TestConfigValidateRejectsNonFinite sets each float field of Config and
// of its reliability, battery and recorder sub-configs to NaN
// and to +Inf in turn. NaN passes every `x <= 0` range check, and a NaN
// SimTime used to hang Run. The rows come from reflection, so a new float
// knob is covered without a test edit.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	valid := func() Config {
		cfg := DefaultConfig()
		cfg.Battery = &BatteryConfig{CapacityJ: 1000}
		return cfg
	}
	type row struct {
		name  string
		index []int
	}
	var rows []row
	var walk func(prefix string, typ reflect.Type, index []int)
	walk = func(prefix string, typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(slices.Clone(index), i)
			ft := f.Type
			if ft == reflect.TypeOf(&BatteryConfig{}) {
				ft = ft.Elem()
			}
			switch ft.Kind() {
			case reflect.Float64:
				rows = append(rows, row{prefix + f.Name, idx})
			case reflect.Struct:
				walk(prefix+f.Name+".", ft, idx)
			}
		}
	}
	walk("", reflect.TypeOf(Config{}), nil)
	if len(rows) < 28 { // the fields as of writing; the walk must not lose any
		t.Fatalf("found only %d float fields: %v", len(rows), rows)
	}
	cfg := valid()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	for _, r := range rows {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			t.Run(fmt.Sprintf("%s=%v", r.name, bad), func(t *testing.T) {
				cfg := valid()
				reflect.ValueOf(&cfg).Elem().FieldByIndex(r.index).SetFloat(bad)
				if err := cfg.Validate(); err == nil {
					t.Fatal("non-finite value accepted")
				}
			})
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Robots = 16
	if got := cfg.FieldSide(); math.Abs(got-800) > 1e-9 {
		t.Fatalf("FieldSide = %v, want 800", got)
	}
	if got := cfg.NumSensors(); got != 800 {
		t.Fatalf("NumSensors = %d, want 800", got)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := quickConfig(core.Dynamic, 4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FailuresInjected != b.FailuresInjected ||
		a.Repairs != b.Repairs ||
		a.ReportsSent != b.ReportsSent ||
		a.LocUpdateTx != b.LocUpdateTx ||
		a.TotalTravel != b.TotalTravel {
		t.Fatalf("same seed diverged:\n%s\n%s", a.Summary(), b.Summary())
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := quickConfig(core.Dynamic, 4)
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.TotalTravel == b.TotalTravel && a.LocUpdateTx == b.LocUpdateTx {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestAllAlgorithmsRepairFailures(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Run(quickConfig(alg, 4))
			if err != nil {
				t.Fatal(err)
			}
			if res.FailuresInjected == 0 {
				t.Fatal("no failures injected")
			}
			if res.RepairRatio() < 0.9 {
				t.Fatalf("repair ratio %.3f < 0.9: %s", res.RepairRatio(), res.Summary())
			}
			if res.ReportDeliveryRatio() < 0.95 {
				t.Fatalf("report delivery %.3f < 0.95", res.ReportDeliveryRatio())
			}
			if res.AvgTravelPerFailure <= 0 {
				t.Fatal("no travel recorded")
			}
		})
	}
}

func TestCentralizedUsesManagerPipeline(t *testing.T) {
	res, err := Run(quickConfig(core.Centralized, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestsIssued == 0 || res.RequestsDelivered == 0 {
		t.Fatalf("manager pipeline unused: issued=%d delivered=%d",
			res.RequestsIssued, res.RequestsDelivered)
	}
	if res.AvgRequestHops <= 0 {
		t.Fatal("no request hops observed")
	}
	// Reports cross more hops than requests (63 m vs 250 m ranges, §4.3.2).
	if res.AvgReportHops <= res.AvgRequestHops {
		t.Fatalf("report hops %.2f should exceed request hops %.2f",
			res.AvgReportHops, res.AvgRequestHops)
	}
}

func TestDistributedAlgorithmsSkipManager(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Fixed, core.Dynamic} {
		res, err := Run(quickConfig(alg, 4))
		if err != nil {
			t.Fatal(err)
		}
		if res.RequestsIssued != 0 {
			t.Fatalf("%v issued %d manager requests", alg, res.RequestsIssued)
		}
	}
}

func TestDistributedReportHopsAreFlat(t *testing.T) {
	// §4.3.2: "the average number of hops traveled by the failure reports
	// in the dynamic or the fixed algorithm is stable at about 2".
	res, err := Run(quickConfig(core.Dynamic, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgReportHops < 1.2 || res.AvgReportHops > 3.2 {
		t.Fatalf("dynamic report hops = %.2f, want ≈2", res.AvgReportHops)
	}
}

func TestFixedHexPartitionRuns(t *testing.T) {
	cfg := quickConfig(core.Fixed, 4)
	cfg.Partition = geom.PartitionHex
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairRatio() < 0.85 {
		t.Fatalf("hex partition repair ratio %.3f", res.RepairRatio())
	}
}

func TestSingleRobotRuns(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		cfg := quickConfig(alg, 1)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Repairs == 0 {
			t.Fatalf("%v with one robot repaired nothing", alg)
		}
	}
}

func TestLossyMediumDegradesGracefully(t *testing.T) {
	cfg := quickConfig(core.Dynamic, 4)
	cfg.LossP = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With 20% loss some repairs still happen; the system must not wedge.
	if res.Repairs == 0 {
		t.Fatal("lossy run repaired nothing")
	}
	// Heavy loss produces false failure detections (a guardian that misses
	// three beacons by chance declares its guardee dead), so reports exceed
	// true failures — the documented cost of beacon-based detection on a
	// lossy channel.
	if res.ReportsSent <= res.FailuresInjected {
		t.Fatalf("expected spurious detections under 20%% loss: sent=%d injected=%d",
			res.ReportsSent, res.FailuresInjected)
	}
}

func TestWeibullLifetimeRuns(t *testing.T) {
	cfg := quickConfig(core.Dynamic, 4)
	cfg.LifetimeShape = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wear-out (shape 2) with the same mean concentrates failures near the
	// mean lifetime: with an 8000 s horizon and 16000 s mean, far fewer
	// early failures than the exponential.
	exp, _ := Run(quickConfig(core.Dynamic, 4))
	if res.FailuresInjected >= exp.FailuresInjected {
		t.Fatalf("weibull(shape=2) early failures %d ≥ exponential %d",
			res.FailuresInjected, exp.FailuresInjected)
	}
}

func TestReplacementsKeepPopulationServiced(t *testing.T) {
	// Over a longer horizon, replacements fail again and get replaced
	// again: repairs must exceed the initial population's failure count
	// expectation under pure attrition (no-replacement upper bound is the
	// initial population size).
	cfg := quickConfig(core.Dynamic, 4)
	cfg.SimTime = 24000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repairs <= res.Config.NumSensors()*3/10 {
		t.Fatalf("suspiciously few repairs %d over 1.5 lifetimes", res.Repairs)
	}
	// The failure pipeline remains roughly balanced.
	if res.ReportsDelivered < res.Repairs {
		t.Fatalf("repairs %d exceed delivered reports %d", res.Repairs, res.ReportsDelivered)
	}
}

func TestWorldExposesStructure(t *testing.T) {
	w, err := New(quickConfig(core.Centralized, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Robots) != 4 {
		t.Fatalf("robots = %d", len(w.Robots))
	}
	if w.Manager == nil {
		t.Fatal("centralized world missing manager")
	}
	if !w.Manager.Pos().Eq(geom.Pt(200, 200)) {
		t.Fatalf("manager at %v, want field center (200,200)", w.Manager.Pos())
	}
	if len(w.Sensors) != 200 {
		t.Fatalf("sensors = %d", len(w.Sensors))
	}
	if len(w.Partition.Centers) != 4 {
		t.Fatalf("partition K = %d", len(w.Partition.Centers))
	}
	wd, err := New(quickConfig(core.Dynamic, 4))
	if err != nil {
		t.Fatal(err)
	}
	if wd.Manager != nil {
		t.Fatal("dynamic world must have no manager")
	}
}

func TestFixedRobotsStartAtSubareaCenters(t *testing.T) {
	w, err := New(quickConfig(core.Fixed, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range w.Robots {
		if !r.Pos().Eq(w.Partition.Centers[i]) {
			t.Fatalf("robot %d at %v, want center %v", i, r.Pos(), w.Partition.Centers[i])
		}
	}
}

func TestNonSquareRobotCounts(t *testing.T) {
	// The paper uses perfect squares so the partition is exact; the grid
	// fallback must keep every algorithm working for other counts too.
	for _, robots := range []int{2, 6} {
		for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
			cfg := quickConfig(alg, robots)
			cfg.SimTime = 4000
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("robots=%d %v: %v", robots, alg, err)
			}
			if res.Repairs == 0 {
				t.Fatalf("robots=%d %v repaired nothing", robots, alg)
			}
		}
	}
}

func TestHighDensityRuns(t *testing.T) {
	cfg := quickConfig(core.Dynamic, 4)
	cfg.SensorsPerRobot = 100 // double the paper's density
	cfg.SimTime = 3000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReportDeliveryRatio() < 0.95 {
		t.Fatalf("high density broke delivery: %.3f", res.ReportDeliveryRatio())
	}
}

// TestObserverSlice pins how layers are wired: a default-config world has
// no observers, and with every layer on the slice holds the invariant
// checker, the trace ring and the telemetry histograms, in that order; a
// restore with a tail trace appends one more ring.
func TestObserverSlice(t *testing.T) {
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.observers) != 0 {
		t.Fatalf("default config: %d observers, want none", len(w.observers))
	}
	cfg := DefaultConfig()
	cfg.SimTime = 1000
	cfg.Invariants.Enabled = true
	cfg.TraceCapacity = 16
	cfg.Telemetry.Enabled = true
	w, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"scenario.invariantObserver", "scenario.traceObserver", "*scenario.telemetryObserver"}
	got := make([]string, len(w.observers))
	for i, o := range w.observers {
		got[i] = fmt.Sprintf("%T", o)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("observers %v, want %v", got, want)
	}

	cfg.TraceCapacity = 0
	w, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Sched.Run(500)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := RestoreOpts(snap, RestoreOptions{TailTraceCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(re.observers); n != 3 {
		t.Fatalf("restored with a tail trace: %d observers, want 3", n)
	}
	if _, ok := re.observers[2].(traceObserver); !ok || re.Trace == nil {
		t.Fatalf("tail trace not appended last: %T", re.observers[2])
	}
}
