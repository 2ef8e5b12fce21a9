package ftdc

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// PromName sanitizes a metric name into the Prometheus charset
// [a-zA-Z0-9_] and prefixes the simulator namespace.
func PromName(name string) string {
	var b strings.Builder
	b.WriteString("roborepair_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// errWriter folds per-line write errors into one sticky error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// WriteCSV renders the recording as CSV: a header of column names, then
// one row per sample, %g-formatted. It is also telemetry's -timeseries
// CSV.
func WriteCSV(w io.Writer, r *Recording) error {
	bw := &errWriter{w: w}
	for i, name := range r.Schema.Cols {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("%s", name)
	}
	bw.printf("\n")
	r.EachRow(func(_ int, row []float64) {
		for i, v := range row {
			if i > 0 {
				bw.printf(",")
			}
			bw.printf("%g", v)
		}
		bw.printf("\n")
	})
	return bw.err
}

// WritePrometheus renders the recording's final sample as gauges in the
// Prometheus text exposition format — the "state at capture" view of a
// banked black box.
func WritePrometheus(w io.Writer, r *Recording) error {
	bw := &errWriter{w: w}
	n := r.NumRows()
	if n == 0 {
		return bw.err
	}
	last := len(r.Chunks) - 1
	for c, name := range r.Schema.Cols {
		pn := PromName(name)
		bw.printf("# TYPE %s gauge\n", pn)
		bw.printf("%s %g\n", pn, r.Chunks[last].Cols[c][r.Chunks[last].Rows-1])
	}
	return bw.err
}

// ColumnStats summarizes one column of a recording.
type ColumnStats struct {
	Name                  string
	Min, Max, Mean, First float64
	Last                  float64
}

// Stats computes per-column summaries over the whole recording.
func (r *Recording) Stats() []ColumnStats {
	out := make([]ColumnStats, len(r.Schema.Cols))
	n := r.NumRows()
	for c, name := range r.Schema.Cols {
		st := ColumnStats{Name: name, Min: math.Inf(1), Max: math.Inf(-1)}
		first := true
		sum := 0.0
		for i := range r.Chunks {
			for _, v := range r.Chunks[i].Cols[c] {
				if first {
					st.First = v
					first = false
				}
				st.Last = v
				st.Min = math.Min(st.Min, v)
				st.Max = math.Max(st.Max, v)
				sum += v
			}
		}
		if n > 0 {
			st.Mean = sum / float64(n)
		} else {
			st.Min, st.Max = 0, 0
		}
		out[c] = st
	}
	return out
}

// WriteSummary renders a human-oriented overview: schema identity, sample
// counts, and per-column min/mean/max/last.
func WriteSummary(w io.Writer, r *Recording) error {
	bw := &errWriter{w: w}
	hash := r.Schema.Hash()
	bw.printf("ftdc recording: %d columns, %d samples in %d chunks\n",
		len(r.Schema.Cols), r.NumRows(), len(r.Chunks))
	bw.printf("schema sha256=%x seed=%d period=%gs\n", hash[:8], r.Schema.Seed, r.Schema.PeriodS)
	bw.printf("%-24s %12s %12s %12s %12s\n", "column", "min", "mean", "max", "last")
	for _, st := range r.Stats() {
		bw.printf("%-24s %12g %12g %12g %12g\n", st.Name, st.Min, st.Mean, st.Max, st.Last)
	}
	return bw.err
}

// ColumnDiff reports how one column differs between two recordings.
type ColumnDiff struct {
	// Name is the column name.
	Name string
	// OnlyIn is "a" or "b" when the column exists in just one recording
	// (Rows/MaxAbs are then zero), "" when it exists in both.
	OnlyIn string
	// Rows is how many compared samples differ.
	Rows int
	// FirstRow is the index of the first differing sample (-1 if none).
	FirstRow int
	// MaxAbs is the largest absolute difference over compared samples
	// (NaN-vs-value counts as +Inf).
	MaxAbs float64
}

// String renders the diff as one report line.
func (d ColumnDiff) String() string {
	if d.OnlyIn != "" {
		return fmt.Sprintf("%-24s only in %s", d.Name, d.OnlyIn)
	}
	return fmt.Sprintf("%-24s %d rows differ, first at row %d, max |Δ| %g",
		d.Name, d.Rows, d.FirstRow, d.MaxAbs)
}

// Diff compares two recordings column-by-column over the samples both
// have, returning one entry per differing or unmatched column (empty when
// the recordings agree). A row-count mismatch is reported on the
// synthetic "(rows)" column.
func Diff(a, b *Recording) []ColumnDiff {
	var out []ColumnDiff
	if an, bn := a.NumRows(), b.NumRows(); an != bn {
		out = append(out, ColumnDiff{Name: "(rows)", Rows: abs(an - bn), FirstRow: min(an, bn)})
	}
	for _, name := range a.Schema.Cols {
		if b.ColumnIndex(name) < 0 {
			out = append(out, ColumnDiff{Name: name, OnlyIn: "a"})
			continue
		}
		av, bv := a.Column(name), b.Column(name)
		n := min(len(av), len(bv))
		d := ColumnDiff{Name: name, FirstRow: -1}
		for i := 0; i < n; i++ {
			x, y := av[i], bv[i]
			if x == y || (math.IsNaN(x) && math.IsNaN(y)) {
				continue
			}
			if d.FirstRow < 0 {
				d.FirstRow = i
			}
			d.Rows++
			delta := math.Abs(x - y)
			if math.IsNaN(delta) {
				delta = math.Inf(1)
			}
			d.MaxAbs = math.Max(d.MaxAbs, delta)
		}
		if d.Rows > 0 {
			out = append(out, d)
		}
	}
	for _, name := range b.Schema.Cols {
		if a.ColumnIndex(name) < 0 {
			out = append(out, ColumnDiff{Name: name, OnlyIn: "b"})
		}
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
