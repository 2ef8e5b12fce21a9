package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"roborepair/internal/ftdc"
	"roborepair/internal/geom"
	"roborepair/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenLog builds a small deterministic causal log: two failures, one
// dispatched repair, a robot breakdown, and a fault marker.
func goldenLog() *trace.Log {
	l := trace.New(-1)
	l.Record(trace.Event{At: 100, Kind: trace.KindFailure, Node: 101, Loc: geom.Pt(10, 20)})
	l.Record(trace.Event{At: 130, Kind: trace.KindReportSent, Node: 101, Actor: 102, Loc: geom.Pt(10, 20)})
	l.Record(trace.Event{At: 131, Kind: trace.KindReportDelivered, Node: 101, Actor: 5, Loc: geom.Pt(10, 20)})
	l.Record(trace.Event{At: 132, Kind: trace.KindDispatch, Node: 101, Actor: 1, Loc: geom.Pt(10, 20)})
	l.Record(trace.Event{At: 150, Kind: trace.KindLocationUpdate, Node: 1, Actor: 1, Loc: geom.Pt(30, 40)})
	l.Record(trace.Event{At: 200, Kind: trace.KindReplacement, Node: 101, Actor: 1, Loc: geom.Pt(10, 20)})
	l.Record(trace.Event{At: 250, Kind: trace.KindFault, Loc: geom.Pt(50, 50)})
	l.Record(trace.Event{At: 300, Kind: trace.KindFailure, Node: 103, Loc: geom.Pt(60, 60)})
	l.Record(trace.Event{At: 320, Kind: trace.KindReportSent, Node: 103, Actor: 104, Loc: geom.Pt(60, 60)})
	l.Record(trace.Event{At: 340, Kind: trace.KindRobotFailure, Node: 2, Actor: 2, Loc: geom.Pt(70, 70)})
	l.Record(trace.Event{At: 341, Kind: trace.KindTaskStranded, Node: 103, Actor: 2, Loc: geom.Pt(60, 60)})
	l.Record(trace.Event{At: 342, Kind: trace.KindTaskRequeued, Node: 103, Actor: 1, Loc: geom.Pt(60, 60)})
	l.Record(trace.Event{At: 400, Kind: trace.KindReplacement, Node: 103, Actor: 1, Loc: geom.Pt(60, 60)})
	return l
}

// recordedCollector builds a collector over a recording of the given
// columns (column 0 the sample time) and rows.
func recordedCollector(t *testing.T, cols []string, rows ...[]float64) *Collector {
	t.Helper()
	rec, err := ftdc.NewRecorder(ftdc.Schema{Cols: cols, PeriodS: 100}, ftdc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		rec.Append(row)
	}
	return NewCollector(rec)
}

// goldenCollector records pending_failures 1, 2, 3 at t = 0, 100, 200.
func goldenCollector(t *testing.T) *Collector {
	return recordedCollector(t, []string{"t_s", "pending_failures"}, []float64{0, 1}, []float64{100, 2}, []float64{200, 3})
}

// TestChromeTraceGolden locks the exporter's byte-exact output.
func TestChromeTraceGolden(t *testing.T) {
	var b bytes.Buffer
	err := WriteChromeTrace(&b, goldenLog(), ChromeOptions{
		ManagerID: 5,
		Collector: goldenCollector(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/telemetry -run Golden -update)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden; regenerate with -update if intended.\ngot:\n%s", b.String())
	}
}

// TestChromeTraceParses validates the structural contract every consumer
// (chrome://tracing, Perfetto) relies on.
func TestChromeTraceParses(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, goldenLog(), ChromeOptions{ManagerID: 5}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  int      `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	var repairs, lanes int
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", e)
		}
		if e.Ph == "X" {
			repairs++
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("X event without valid dur: %+v", e)
			}
		}
		if e.Ph == "M" && e.Name == "thread_name" && e.Pid == chromePidRobots {
			lanes++
		}
	}
	if repairs != 2 {
		t.Fatalf("repair slices = %d, want 2", repairs)
	}
	if lanes != 2 { // robot-1 and robot-2
		t.Fatalf("robot lanes = %d, want 2", lanes)
	}
}

// TestChromeTraceSlicesDoNotOverlap checks the per-lane clamping that
// keeps queued repairs from rendering as overlapping slices.
func TestChromeTraceSlicesDoNotOverlap(t *testing.T) {
	l := trace.New(-1)
	// Two failures reported back-to-back, served sequentially by robot 1.
	l.Record(trace.Event{At: 10, Kind: trace.KindReportSent, Node: 201})
	l.Record(trace.Event{At: 11, Kind: trace.KindReportSent, Node: 202})
	l.Record(trace.Event{At: 50, Kind: trace.KindReplacement, Node: 201, Actor: 1})
	l.Record(trace.Event{At: 90, Kind: trace.KindReplacement, Node: 202, Actor: 1})
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, l, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string   `json:"ph"`
			Ts  float64  `json:"ts"`
			Dur *float64 `json:"dur"`
			Tid int      `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	end := -1.0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Ts < end {
			t.Fatalf("slice starting at %v overlaps previous end %v", e.Ts, end)
		}
		end = e.Ts + *e.Dur
	}
	if end < 0 {
		t.Fatal("no X slices emitted")
	}
}
