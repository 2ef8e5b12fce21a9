package telemetry

import (
	"bytes"
	"errors"
	"io"
	"regexp"
	"strings"
	"testing"

	"roborepair/internal/metrics"
)

// promLine matches one Prometheus exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func scrapeCheck(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty exposition")
	}
	for _, ln := range lines {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if !promLine.MatchString(ln) {
			t.Fatalf("unscrapeable line: %q", ln)
		}
	}
}

func buildCollector(t *testing.T) *Collector {
	t.Helper()
	c := recordedCollector(t, []string{"t_s", "queue_depth"},
		[]float64{0, 2}, []float64{50, 4}, []float64{100, 6}, []float64{150, 8})
	h := c.Histogram("repair_delay_s", 8, 12)
	for _, v := range []float64{5, 30, 200, 9000} {
		h.Add(v)
	}
	return c
}

func TestWritePrometheus(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.CountTx(metrics.CatBeacon, 123)
	reg.Observe(metrics.SeriesReportHops, 2)
	reg.Observe(metrics.SeriesReportHops, 4)
	reg.Histogram("repair_delay_hist", 30, 8).Add(45)

	c := buildCollector(t)
	var b bytes.Buffer
	if err := WritePrometheus(&b, reg, c); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	scrapeCheck(t, text)

	for _, want := range []string{
		`roborepair_tx_total{category="beacon"} 123`,
		"roborepair_report_hops_count 2",
		"roborepair_report_hops_sum 6",
		`roborepair_repair_delay_hist_bucket{le="30"} 0`,
		`roborepair_repair_delay_hist_bucket{le="60"} 1`,
		`roborepair_repair_delay_hist_bucket{le="240"} 1`,
		`roborepair_repair_delay_hist_bucket{le="+Inf"} 1`,
		`roborepair_repair_delay_s_bucket{le="8"} 1`,
		"roborepair_repair_delay_s_count 4",
		"# TYPE roborepair_queue_depth gauge\nroborepair_queue_depth 8\n",
		"roborepair_t_s 150\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Histogram bucket counts must be cumulative.
	if !strings.Contains(text, `roborepair_repair_delay_s_bucket{le="256"} 3`) {
		t.Errorf("cumulative buckets wrong:\n%s", text)
	}

	// nil registry and nil collector are both fine.
	if err := WritePrometheus(&bytes.Buffer{}, nil, c); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&bytes.Buffer{}, reg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTimeSeriesCSV(t *testing.T) {
	var b bytes.Buffer
	if err := buildCollector(t).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := "t_s,queue_depth\n0,2\n50,4\n100,6\n150,8\n"; b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

// failAfter accepts budget bytes, then short-writes with an error — the
// adversarial sink for exporter error-path coverage.
type failAfter struct {
	budget int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.budget {
		f.budget -= len(p)
		return len(p), nil
	}
	n := f.budget
	f.budget = 0
	return n, errors.New("sink full")
}

// TestExportersPropagateWriteErrors: a failing writer must surface as the
// exporter's returned error wherever mid-stream the failure lands — the
// sticky errWriter must not swallow short writes.
func TestExportersPropagateWriteErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.CountTx(metrics.CatBeacon, 123)
	c := buildCollector(t)
	exporters := map[string]func(io.Writer) error{
		"WritePrometheus": func(w io.Writer) error { return WritePrometheus(w, reg, c) },
		"WriteCSV":        c.WriteCSV,
		"WriteChromeTrace": func(w io.Writer) error {
			return WriteChromeTrace(w, goldenLog(), ChromeOptions{ManagerID: 5, Collector: c})
		},
	}
	for name, render := range exporters {
		var full bytes.Buffer
		if err := render(&full); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Fail at the start, one byte in, mid-stream, and one byte short.
		for _, budget := range []int{0, 1, full.Len() / 2, full.Len() - 1} {
			if err := render(&failAfter{budget: budget}); err == nil {
				t.Fatalf("%s(budget=%d of %d): error lost", name, budget, full.Len())
			}
		}
		// A sink exactly large enough succeeds: the budgets above really
		// were mid-stream failures, not size mismatches.
		if err := render(&failAfter{budget: full.Len()}); err != nil {
			t.Fatalf("%s exact-budget sink failed: %v", name, err)
		}
	}
}

// TestWriteTimeSeriesCSVZeroSamples: a recording with no samples yet
// still renders a well-formed header-only CSV.
func TestWriteTimeSeriesCSVZeroSamples(t *testing.T) {
	c := recordedCollector(t, []string{"t_s", "queue_depth"})
	var b bytes.Buffer
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "t_s,queue_depth\n" {
		t.Fatalf("zero-sample CSV = %q", b.String())
	}
}

// TestWriteTimeSeriesCSVSingleSample: only the t=0 baseline sample.
func TestWriteTimeSeriesCSVSingleSample(t *testing.T) {
	c := recordedCollector(t, []string{"t_s", "queue_depth"}, []float64{0, 3})
	var b bytes.Buffer
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "t_s,queue_depth\n0,3\n" {
		t.Fatalf("single-sample CSV = %q", b.String())
	}
}

func TestCollectorSummary(t *testing.T) {
	c := buildCollector(t)
	s := c.Summary()
	for _, want := range []string{"repair_delay_s", "n=4 mean=", "timeseries_samples", "n=4 (period 100s, 2 columns)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}
