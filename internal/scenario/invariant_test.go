package scenario

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/invariant"
	"roborepair/internal/sim"
)

// updateGolden regenerates testdata/golden_results.json instead of
// comparing against it.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func invTestConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = core.Dynamic
	cfg.SimTime = 3000
	cfg.MeanLifetime = 4000
	cfg.Seed = seed
	return cfg
}

// TestInvariantsCleanAcrossAlgorithmsAndChaos is the tentpole's positive
// contract: real runs — every algorithm, with and without the reliability
// protocol, under a fault mix of loss burst, regional blackout, and
// manager crash — break none of the conservation laws.
func TestInvariantsCleanAcrossAlgorithmsAndChaos(t *testing.T) {
	plan, err := chaos.Parse("burst@750-1500=0.3;blackout@750-1500=200,200,100;mgr@750")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		for _, tc := range []struct {
			name     string
			faults   *chaos.FaultPlan
			reliable bool
		}{
			{name: "fault-free"},
			{name: "chaos", faults: plan, reliable: true},
			{name: "chaos-fire-and-forget", faults: plan},
		} {
			cfg := invTestConfig(17)
			cfg.Algorithm = alg
			cfg.Faults = tc.faults
			cfg.Reliability.Enabled = tc.reliable
			cfg.Invariants.Enabled = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Errorf("%v/%s: %d violations, first: %v",
					alg, tc.name, len(res.Violations), res.Violations[0])
			}
		}
	}
}

// TestInvariantSkippedRepairCaught is the seeded-mutation acceptance test:
// silently dropping one completed repair from the books must trip the
// failure-conservation law at finalize.
func TestInvariantSkippedRepairCaught(t *testing.T) {
	cfg := invTestConfig(5)
	cfg.Invariants.Enabled = true
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Sched.Run(sim.Time(cfg.SimTime))
	w.failuresInjected = w.Injector.Killed()
	if w.repairs == 0 {
		t.Fatal("run produced no repairs; pick a harsher config")
	}
	w.repairs-- // the seeded bug: one repair-completion event goes missing
	res := w.results()
	w.finalizeInvariants(&res)
	found := false
	for _, v := range res.Violations {
		if v.Law == invariant.LawFailureConservation {
			found = true
		}
	}
	if !found {
		t.Fatalf("skipped repair not caught; violations: %v", res.Violations)
	}
}

// TestInvariantPhantomRepairCaught: a repair completion at a site that
// never hosted a failure (or a sensor) violates conservation mid-run.
func TestInvariantPhantomRepairCaught(t *testing.T) {
	cfg := invTestConfig(5)
	cfg.Invariants.Enabled = true
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Sched.Run(1000)
	w.inv.RepairCompleted(9999, w.Partition.Bounds.Center().Add(w.Partition.Bounds.Center()))
	w.Sched.Run(sim.Time(cfg.SimTime))
	found := false
	for _, v := range w.inv.Violations() {
		if v.Law == invariant.LawFailureConservation {
			found = true
		}
	}
	if !found {
		t.Fatalf("phantom repair not caught; violations: %v", w.inv.Violations())
	}
}

// TestInvariantsDoNotPerturbResults is the layer's overhead contract:
// turning the checker on must not change a single reported quantity —
// every probe only reads simulation state.
func TestInvariantsDoNotPerturbResults(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		cfg := invTestConfig(11)
		cfg.Algorithm = alg
		off, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Invariants.Enabled = true
		on, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(on.Violations) != 0 {
			t.Fatalf("%v: clean run reported violations: %v", alg, on.Violations)
		}
		// Results echoes the Config, which legitimately differs in the
		// invariants field; normalize it so only simulated quantities compare.
		on.Config.Invariants = invariant.Config{}
		if a, b := resultsJSON(t, off), resultsJSON(t, on); a != b {
			t.Fatalf("%v: invariants changed the results:\noff: %s\non:  %s", alg, a, b)
		}
	}
}

// TestInvariantsOffAllocations guards the disabled path with the same
// ceiling as the telemetry layer: the disabled path must not allocate.
func TestInvariantsOffAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run allocation measurement")
	}
	cfg := invTestConfig(3)
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
		t.Fatalf("invariants-off run allocated %v, ceiling %v — did checking leak into the disabled path?", allocs, ceiling)
	}
}

// TestInvariantConfigValidation rejects a bad limit via the scenario-level
// Validate.
func TestInvariantConfigValidation(t *testing.T) {
	cfg := invTestConfig(1)
	cfg.Invariants.Limit = -2
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative violation limit accepted")
	}
}

// TestGoldenResultsInvariantsOff pins the simulator's output for one fixed
// configuration to a checked-in golden file: any change to a reported
// quantity in an invariants-off run is a behavioral regression this PR and
// its successors must not introduce silently. Regenerate with
// -run TestGoldenResultsInvariantsOff -update-golden after an intentional
// behavior change.
func TestGoldenResultsInvariantsOff(t *testing.T) {
	cfg := invTestConfig(23)
	cfg.Reliability.Enabled = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_results.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("results diverge from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
