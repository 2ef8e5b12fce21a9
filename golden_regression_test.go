package roborepair_test

// Golden bit-identity regression for the algorithm-registry refactor:
// the files under testdata/golden were captured from the pre-registry
// tree (temporary generator, since deleted), and every run here must
// reproduce them byte for byte — Results JSON (which also locks the
// Config JSON encoding, and with it the checkpoint config hash) and the
// full causal trace. Regenerate the goldens only when a PR intentionally
// changes simulation behavior, by re-running the recipe below at the
// commit just before the change.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roborepair"
	"roborepair/internal/chaos"
)

// goldenConfig reproduces the capture recipe exactly: paper defaults at
// a 4000 s horizon with seed 3 and a full trace; the reliable-burst
// variant layers faster failures, the reliability protocol, the
// invariant checker, and a mid-run loss burst on top. The contended
// variant runs the reliability protocol over the CSMA contention model
// with a frame-corruption window and a manager crash, pinning the
// contended medium's collisions, carrier-sense deferrals and backoff
// draws byte for byte.
func goldenConfig(alg roborepair.Algorithm, variant string) roborepair.Config {
	cfg := roborepair.DefaultConfig()
	cfg.Algorithm = alg
	cfg.SimTime = 4000
	cfg.Seed = 3
	cfg.TraceCapacity = -1
	if variant == "reliable-burst" {
		cfg.MeanLifetime = 2000
		cfg.Reliability.Enabled = true
		cfg.Invariants.Enabled = true
		plan, err := chaos.Parse("burst@1000-2000=0.3")
		if err != nil {
			panic(err)
		}
		cfg.Faults = plan
	}
	if variant == "contended" {
		cfg.MeanLifetime = 2000
		cfg.Reliability.Enabled = true
		cfg.MACContention = true
		plan, err := chaos.Parse("mgr@1500;corrupt@2000-3000=0.05")
		if err != nil {
			panic(err)
		}
		cfg.Faults = plan
	}
	return cfg
}

func TestGoldenBitIdentity(t *testing.T) {
	for _, alg := range []roborepair.Algorithm{roborepair.Centralized, roborepair.Fixed, roborepair.Dynamic} {
		for _, variant := range []string{"paper", "reliable-burst", "contended"} {
			name := fmt.Sprintf("%s-%s", alg, variant)
			t.Run(name, func(t *testing.T) {
				w, err := roborepair.NewWorld(goldenConfig(alg, variant))
				if err != nil {
					t.Fatal(err)
				}
				res := w.Run()
				js, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				js = append(js, '\n')
				var sb strings.Builder
				for _, e := range w.Trace.Events() {
					sb.WriteString(e.String())
					sb.WriteByte('\n')
				}
				compareGolden(t, filepath.Join("testdata", "golden", name+".json"), js)
				compareGolden(t, filepath.Join("testdata", "golden", name+".trace"), []byte(sb.String()))
			})
		}
	}
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		return
	}
	// Report the first diverging line, not a megabyte dump.
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: length differs (got %d lines, want %d)", path, len(gl), len(wl))
}
