// Cross-algorithm conformance suite: the contract every coordination
// algorithm must satisfy to live in the registry. The suite enumerates
// internal/algorithm's registry — it does NOT hardcode algorithm names —
// so a newly registered family is exercised by every assertion here with
// zero test edits. Each registered algorithm must be
//
//	(a) deterministic: a serial Run and a RunMany worker-pool run of the
//	    same config produce byte-identical Results JSON;
//	(b) checkpointable: snapshot → encode → decode → restore → continue
//	    is bit-identical (Results and full event trace) to an
//	    uninterrupted run, on the ideal medium and under MAC contention;
//	(c) clean under chaos: the burst / blackout / corrupt / drain fault
//	    plans, and a corrupt plan over the contended medium, produce zero
//	    invariant violations;
//	(d) unperturbed by observability: invariants + telemetry + recorder
//	    change no simulation outcome (same trace, same counters), and
//	    switched off their Results sections are absent.
package roborepair_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"roborepair"
	"roborepair/internal/algorithm"
)

// conformanceConfig is the common base: a short horizon with plenty of
// failures inside it, the reliability protocol armed (it exercises
// re-dispatch and takeover paths), the battery layer live (admission
// checks, recharge detours, and handoffs run inside every contract), and
// a full trace as the bit-identity oracle.
func conformanceConfig(alg roborepair.Algorithm) roborepair.Config {
	cfg := roborepair.DefaultConfig()
	cfg.Algorithm = alg
	cfg.SimTime = 2400
	cfg.MeanLifetime = 1500
	cfg.Seed = 5
	cfg.TraceCapacity = 4096
	cfg.Reliability.Enabled = true
	// A saturated robot draws ≈31.6 W, so this pack forces several recharge
	// round-trips inside the horizon.
	cfg.Battery = &roborepair.BatteryConfig{CapacityJ: 30000, RechargeW: 250}
	return cfg
}

// forEachAlgorithm runs fn once per registered algorithm, as a parallel
// subtest named "<algorithm>/ladder" after the event queue the runs use.
// This is the only loop in the suite; everything iterates the registry.
func forEachAlgorithm(t *testing.T, fn func(t *testing.T, alg roborepair.Algorithm)) {
	for _, name := range algorithm.Names() {
		alg := roborepair.Algorithm(name)
		t.Run(name+"/ladder", func(t *testing.T) {
			t.Parallel()
			fn(t, alg)
		})
	}
}

func marshalResults(t *testing.T, res roborepair.Results) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConformanceRegistryComplete pins the suite to the registry: if this
// fails, an algorithm was registered or removed and the goldens /
// EXPERIMENTS tables need a corresponding update — the conformance
// subtests themselves adapt automatically.
func TestConformanceRegistryComplete(t *testing.T) {
	names := algorithm.Names()
	if len(names) < 4 {
		t.Fatalf("registry lists only %v; the paper's three algorithms and the facility family must all be registered", names)
	}
	for _, want := range []roborepair.Algorithm{roborepair.Centralized, roborepair.Fixed, roborepair.Dynamic, "facility"} {
		if _, err := roborepair.ParseAlgorithm(string(want)); err != nil {
			t.Errorf("%q not registered: %v", want, err)
		}
	}
}

// TestConformanceDeterminism — contract (a).
func TestConformanceDeterminism(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg roborepair.Algorithm) {
		cfg := conformanceConfig(alg)
		cfg.Invariants.Enabled = true
		serial, err := roborepair.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := roborepair.RunMany([]roborepair.Config{cfg, cfg}, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := marshalResults(t, serial)
		for i, res := range pooled {
			if got := marshalResults(t, res); got != want {
				t.Fatalf("RunMany[%d] diverged from serial run:\n got %s\nwant %s", i, got, want)
			}
		}
	})
}

// TestConformanceCheckpointRestore — contract (b). The contended case
// carries the MAC's frame counter and per-station air logs through the
// snapshot, and the restore's replay must rebuild them byte for byte.
func TestConformanceCheckpointRestore(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg roborepair.Algorithm) {
		for _, contended := range []bool{false, true} {
			cfg := conformanceConfig(alg)
			cfg.MACContention = contended
			checkRestoreContinues(t, cfg)
		}
	})
}

// checkRestoreContinues runs cfg uninterrupted, segmented with a banked
// mid-run snapshot, and restored from that snapshot, and requires all
// three to agree.
func checkRestoreContinues(t *testing.T, cfg roborepair.Config) {
	t.Helper()
	medium := "ideal medium"
	if cfg.MACContention {
		medium = "contended medium"
	}
	// Uninterrupted reference.
	wA, err := roborepair.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resA := marshalResults(t, wA.Run())
	traceA := wA.Trace.Events()

	// Segmented run, banking the mid-run snapshot through the binary
	// codec (the same path a crash-resumed sweep takes).
	wB, err := roborepair.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	resB, err := wB.RunCheckpointed(roborepair.CheckpointOptions{
		Every: 600,
		OnSnapshot: func(s *roborepair.Snapshot) error {
			if s.T == 1200 {
				b, err := roborepair.EncodeSnapshot(s)
				if err != nil {
					return err
				}
				blob = b
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalResults(t, resB); got != resA {
		t.Errorf("%s: segmented run diverged from uninterrupted run:\n got %s\nwant %s", medium, got, resA)
	}
	if blob == nil {
		t.Fatalf("%s: no snapshot banked at t=1200", medium)
	}

	// Kill + restore + continue.
	snap, err := roborepair.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	wC, err := roborepair.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalResults(t, wC.Run()); got != resA {
		t.Errorf("%s: restored run diverged from uninterrupted run:\n got %s\nwant %s", medium, got, resA)
	}
	if !reflect.DeepEqual(wC.Trace.Events(), traceA) {
		t.Errorf("%s: restored run trace diverged from uninterrupted run", medium)
	}
}

// conformanceFaultPlans are the chaos regimes of contract (c): a loss
// burst, a regional radio blackout dead-center in the default 400 m
// field, a hostile-channel corruption window, a battery drain, and the
// corruption window again over the contended medium (contended).
var conformanceFaultPlans = []struct {
	name, spec string
	contended  bool
}{
	{"burst", "burst@600-1400=0.3", false},
	{"blackout", "blackout@600-1400=200,200,100", false},
	{"corrupt", "corrupt@600-1400=0.1", false},
	{"drain", "drain@600-1400=0.5", false},
	{"contended-corrupt", "corrupt@600-1400=0.1", true},
}

// TestConformanceChaosCleanliness — contract (c).
func TestConformanceChaosCleanliness(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg roborepair.Algorithm) {
		for _, plan := range conformanceFaultPlans {
			cfg := conformanceConfig(alg)
			cfg.Invariants.Enabled = true
			cfg.MACContention = plan.contended
			faults, err := roborepair.ParseFaultPlan(plan.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = faults
			res, err := roborepair.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("%s: invariant violation: %v", plan.name, v)
			}
		}
	})
}

// TestConformanceObservabilityOffIsAbsent — contract (d). The
// observability stack must be a pure readout: arming invariants,
// telemetry, and the flight recorder together changes no simulation
// outcome, and disarmed, their Results sections are absent.
func TestConformanceObservabilityOffIsAbsent(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, alg roborepair.Algorithm) {
		base := conformanceConfig(alg)
		wOff, err := roborepair.NewWorld(base)
		if err != nil {
			t.Fatal(err)
		}
		resOff := wOff.Run()
		if resOff.Telemetry != nil {
			t.Error("telemetry off but Results.Telemetry present")
		}
		if resOff.Recording != nil {
			t.Error("recorder off but Results.Recording present")
		}
		if resOff.Violations != nil {
			t.Error("invariants off but Results.Violations present")
		}

		armed := base
		armed.Invariants.Enabled = true
		armed.Telemetry.Enabled = true
		armed.Recorder.Enabled = true
		wOn, err := roborepair.NewWorld(armed)
		if err != nil {
			t.Fatal(err)
		}
		resOn := wOn.Run()
		if resOn.Telemetry == nil || resOn.Recording == nil {
			t.Fatal("observability armed but Results sections missing")
		}
		for _, v := range resOn.Violations {
			t.Errorf("invariant violation in fault-free run: %v", v)
		}
		if !reflect.DeepEqual(wOn.Trace.Events(), wOff.Trace.Events()) {
			t.Error("arming observability changed the event trace")
		}
		if resOn.Repairs != resOff.Repairs ||
			resOn.FailuresInjected != resOff.FailuresInjected ||
			resOn.TotalTravel != resOff.TotalTravel ||
			resOn.LocUpdateTx != resOff.LocUpdateTx {
			t.Errorf("arming observability changed outcomes: on {repairs %d, failures %d, travel %.3f, tx %d} vs off {repairs %d, failures %d, travel %.3f, tx %d}",
				resOn.Repairs, resOn.FailuresInjected, resOn.TotalTravel, resOn.LocUpdateTx,
				resOff.Repairs, resOff.FailuresInjected, resOff.TotalTravel, resOff.LocUpdateTx)
		}
	})
}
