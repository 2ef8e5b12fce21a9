package scenario

import (
	"bytes"
	"strings"
	"testing"

	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/ftdc"
)

func ftdcTestConfig(seed int64) Config {
	cfg := telTestConfig(seed)
	cfg.Recorder = ftdc.Config{Enabled: true}
	return cfg
}

// TestRecorderDoesNotPerturbResults is the flight recorder's core
// contract: arming it must not change a single reported quantity — it
// rides the scheduler but only reads state.
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Centralized, core.Fixed, core.Dynamic} {
		cfg := telTestConfig(17)
		cfg.Algorithm = alg
		off, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Recorder = ftdc.Config{Enabled: true}
		on, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		on.Config.Recorder = ftdc.Config{}
		if a, b := resultsJSON(t, off), resultsJSON(t, on); a != b {
			t.Fatalf("%v: recorder changed the results:\noff: %s\non:  %s", alg, a, b)
		}
		if on.Recording == nil {
			t.Fatalf("%v: enabled run carries no recording", alg)
		}
		if off.Recording != nil {
			t.Fatalf("%v: disabled run carries a recording", alg)
		}
	}
}

// TestRecorderCapturesRun decodes an enabled run's capture and
// cross-checks the final sample against Results.
func TestRecorderCapturesRun(t *testing.T) {
	cfg := ftdcTestConfig(5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.Recording.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	rec, err := ftdc.Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// Samples at 0, 250, ..., 3000.
	if want := int(cfg.SimTime/250) + 1; rec.NumRows() != want {
		t.Fatalf("rows = %d, want %d", rec.NumRows(), want)
	}
	if rec.Schema.Seed != cfg.Seed || rec.Schema.PeriodS != 250 {
		t.Fatalf("schema = %+v", rec.Schema)
	}
	lastOf := func(name string) float64 {
		col := rec.Column(name)
		if col == nil {
			t.Fatalf("missing column %q", name)
		}
		return col[len(col)-1]
	}
	if got := lastOf(FTDCColTime); got != cfg.SimTime {
		t.Errorf("last t_s = %v, want %v", got, cfg.SimTime)
	}
	if got := lastOf(FTDCColRepairs); got != float64(res.Repairs) {
		t.Errorf("last repairs = %v, want %d", got, res.Repairs)
	}
	if got := lastOf(FTDCColFailuresInjected); got != float64(res.FailuresInjected) {
		t.Errorf("last failures_injected = %v, want %d", got, res.FailuresInjected)
	}
	if got := lastOf(FTDCColReportsSent); got != float64(res.ReportsSent) {
		t.Errorf("last reports_sent = %v, want %d", got, res.ReportsSent)
	}
	if got := lastOf(FTDCColTxLocUpdate); got != float64(res.LocUpdateTx) {
		t.Errorf("last tx_location_update = %v, want %d", got, res.LocUpdateTx)
	}
	if got := lastOf(FTDCColEventsFired); got <= 0 {
		t.Errorf("last events_fired = %v, want > 0", got)
	}
	// Cumulative columns never decrease.
	for _, name := range []string{FTDCColEventsFired, FTDCColFailuresInjected, FTDCColRepairs, FTDCColReportsSent, FTDCColTxLocUpdate} {
		col := rec.Column(name)
		for i := 1; i < len(col); i++ {
			if col[i] < col[i-1] {
				t.Fatalf("%s decreases at row %d: %v -> %v", name, i, col[i-1], col[i])
			}
		}
	}
}

// TestRecorderOutputBeatsCSVTenfold is the tentpole's size target: the
// binary capture must be at least 10× smaller than the equivalent
// time-series CSV — the same columns, rows, and cadence rendered by
// ftdc.WriteCSV (header line, %g rows).
func TestRecorderOutputBeatsCSVTenfold(t *testing.T) {
	cfg := ftdcTestConfig(9)
	cfg.SimTime = 16000
	cfg.Recorder.SamplePeriodS = 10 // service-scale capture density
	cfg.Recorder.ChunkRows = 512    // archival capture: large chunks compress best
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.Recording.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ftdc.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := ftdc.WriteCSV(&csv, rec); err != nil {
		t.Fatal(err)
	}
	ratio := float64(csv.Len()) / float64(len(b))
	if ratio < 10 {
		t.Fatalf("recording %d bytes vs equivalent CSV %d bytes: ratio %.1f×, want ≥ 10×", len(b), csv.Len(), ratio)
	}
	t.Logf("recording %d bytes, equivalent CSV %d bytes: %.1f× smaller", len(b), csv.Len(), ratio)
}

// TestRecorderChaosMarkers runs under a fault plan and checks the
// chaos_active bitmask tracks the configured windows.
func TestRecorderChaosMarkers(t *testing.T) {
	cfg := ftdcTestConfig(3)
	cfg.Faults = &chaos.FaultPlan{
		LossBursts: []chaos.LossBurst{{From: 500, To: 1200, P: 0.5}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.Recording.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ftdc.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	ts := rec.Column(FTDCColTime)
	bits := rec.Column(FTDCColChaosActive)
	for i := range ts {
		inBurst := ts[i] >= 500 && ts[i] < 1200
		got := int(bits[i])&chaosBitLossBurst != 0
		if got != inBurst {
			t.Fatalf("t=%v: loss-burst bit = %v, want %v", ts[i], got, inBurst)
		}
	}
}

// TestRecorderBlackBoxMode bounds retention and still decodes.
func TestRecorderBlackBoxMode(t *testing.T) {
	cfg := ftdcTestConfig(4)
	cfg.Recorder.ChunkRows = 2
	cfg.Recorder.KeepChunks = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recording.EvictedChunks() == 0 {
		t.Fatal("expected evictions with ChunkRows=2 KeepChunks=3")
	}
	b, err := res.Recording.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ftdc.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	// 3 retained chunks of 2 rows plus a pending tail of ≤ 2.
	if rec.NumRows() < 6 || rec.NumRows() > 8 {
		t.Fatalf("retained rows = %d, want 6..8", rec.NumRows())
	}
	ts := rec.Column(FTDCColTime)
	if ts[len(ts)-1] != cfg.SimTime {
		t.Fatalf("black box does not end at the horizon: %v", ts[len(ts)-1])
	}
}

// TestRecorderCheckpointRestore proves the recorder participates in the
// checkpoint contract: a mid-flight snapshot of a recording run restores
// and the continuation is bit-identical, recording included.
func TestRecorderCheckpointRestore(t *testing.T) {
	cfg := ftdcTestConfig(8)
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Sched.Run(1500)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	resA := w.Run()
	resB := restored.Run()
	a, err := resA.Recording.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := resB.Recording.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("restored continuation's recording diverges from the original")
	}
	if resultsJSON(t, resA) != resultsJSON(t, resB) {
		t.Fatal("restored continuation's results diverge")
	}
}

// TestTelemetryReadsTheRecording pins the single time-series store: with
// the recorder on, adding telemetry leaves the recording byte-identical
// (telemetry samples nothing itself), telemetry alone arms the same
// recording, and the telemetry CSV is ftdc.WriteCSV of it, one row per
// period from the t=0 baseline.
func TestTelemetryReadsTheRecording(t *testing.T) {
	cfg := ftdcTestConfig(6)
	cfg.Recorder.SamplePeriodS = 100
	capture := func(cfg Config) (Results, []byte) {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Recording.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	_, recorded := capture(cfg)
	cfg.Telemetry.Enabled = true
	both, withTelemetry := capture(cfg)
	if !bytes.Equal(recorded, withTelemetry) {
		t.Fatal("enabling telemetry changed the recording")
	}
	cfg.Recorder.Enabled = false
	_, telemetryOnly := capture(cfg)
	if !bytes.Equal(recorded, telemetryOnly) {
		t.Fatal("telemetry alone armed a different recording")
	}

	rec, err := ftdc.Decode(recorded)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := both.Telemetry.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := ftdc.WriteCSV(&want, rec); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("telemetry CSV is not the recording's:\n%s\nwant:\n%s", got.String(), want.String())
	}
	times := rec.Column(FTDCColTime)
	if len(times) != 31 {
		t.Fatalf("%d samples over 3000 s at 100 s, want 31", len(times))
	}
	for i, ts := range times {
		if ts != float64(i)*100 {
			t.Fatalf("sample %d at t=%v, want %v", i, ts, float64(i)*100)
		}
	}
}
