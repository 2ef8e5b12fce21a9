package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roborepair/internal/ftdc"
)

// bankRecording writes a small two-column recording and returns its path.
func bankRecording(t *testing.T, name string, vs []float64) string {
	t.Helper()
	ts := make([]float64, len(vs))
	for i := range ts {
		ts[i] = float64(i) * 250
	}
	rec := &ftdc.Recording{
		Schema: ftdc.Schema{Cols: []string{"t_s", "v"}, PeriodS: 250, Seed: 7},
		Chunks: []ftdc.Chunk{{Rows: len(vs), Cols: [][]float64{ts, vs}}},
	}
	b, err := ftdc.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummaryDefault(t *testing.T) {
	path := bankRecording(t, "a.ftdc", []float64{1, 2, 3})
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 columns, 3 samples", "seed=7", "t_s", "v"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestCSVMode(t *testing.T) {
	path := bankRecording(t, "a.ftdc", []float64{1, 2.5})
	var out strings.Builder
	if err := run([]string{"-csv", path}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "t_s,v\n0,1\n250,2.5\n"; got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestPromMode(t *testing.T) {
	path := bankRecording(t, "a.ftdc", []float64{1, 42})
	var out strings.Builder
	if err := run([]string{"-prom", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "roborepair_v 42\n") {
		t.Fatalf("prom output missing final gauge:\n%s", out.String())
	}
}

func TestVerifyAcceptsCanonical(t *testing.T) {
	path := bankRecording(t, "a.ftdc", []float64{1, 2, 3})
	var out strings.Builder
	if err := run([]string{"-verify", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "canonical") {
		t.Fatalf("verify output: %s", out.String())
	}
}

func TestVerifyRejectsCorruption(t *testing.T) {
	path := bankRecording(t, "a.ftdc", []float64{1, 2, 3})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", path}, &strings.Builder{}); err == nil {
		t.Fatal("corrupted recording verified clean")
	}
}

func TestDiffIdentical(t *testing.T) {
	a := bankRecording(t, "a.ftdc", []float64{1, 2, 3})
	b := bankRecording(t, "b.ftdc", []float64{1, 2, 3})
	var out strings.Builder
	if err := run([]string{"-diff", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("diff output: %s", out.String())
	}
}

func TestDiffDivergent(t *testing.T) {
	a := bankRecording(t, "a.ftdc", []float64{1, 2, 3})
	b := bankRecording(t, "b.ftdc", []float64{1, 9, 3})
	var out strings.Builder
	err := run([]string{"-diff", a, b}, &out)
	if err == nil {
		t.Fatal("divergent recordings diffed clean")
	}
	if !strings.Contains(out.String(), "1 rows differ, first at row 1") {
		t.Fatalf("diff output: %s", out.String())
	}
}

func TestFlagValidation(t *testing.T) {
	path := bankRecording(t, "a.ftdc", []float64{1})
	for _, args := range [][]string{
		{},                      // no path
		{"-csv", "-prom", path}, // conflicting modes
		{"-diff", path},         // -diff needs two
		{path, path},            // plain mode needs one
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
