package telemetry

import (
	"bufio"
	"fmt"
	"io"

	"roborepair/internal/ftdc"
	"roborepair/internal/metrics"
)

// promFloat renders a float in Prometheus exposition syntax.
func promFloat(v float64) string { return fmt.Sprintf("%g", v) }

// WritePrometheus renders one run's full accounting — the metrics
// registry's transmission counters, sample series, and histograms, plus
// the collector's histograms and the recording's final sample as gauges —
// in the Prometheus text exposition format. Either reg or c may be nil.
// Output order is fixed (sorted registry names, registration-ordered
// collector histograms, schema-ordered gauges), so the text is
// deterministic for a deterministic run.
func WritePrometheus(w io.Writer, reg *metrics.Registry, c *Collector) error {
	bw := bufio.NewWriter(w)
	if reg != nil {
		fmt.Fprintf(bw, "# TYPE roborepair_tx_total counter\n")
		for _, cat := range reg.Categories() {
			fmt.Fprintf(bw, "roborepair_tx_total{category=%q} %d\n", cat, reg.Tx(cat))
		}
		for _, s := range reg.SeriesNames() {
			acc := reg.Series(s)
			name := ftdc.PromName(s)
			fmt.Fprintf(bw, "# TYPE %s summary\n", name)
			fmt.Fprintf(bw, "%s_count %d\n", name, acc.N())
			fmt.Fprintf(bw, "%s_sum %s\n", name, promFloat(acc.Sum()))
			fmt.Fprintf(bw, "%s{quantile=\"0\"} %s\n", name, promFloat(acc.Min()))
			fmt.Fprintf(bw, "%s{quantile=\"1\"} %s\n", name, promFloat(acc.Max()))
		}
		for _, hn := range reg.HistNames() {
			writePromHistogram(bw, hn, reg.Hist(hn))
		}
	}
	if c != nil {
		for _, hn := range c.histNames {
			writePromHistogram(bw, hn, c.hists[hn])
		}
		rec, err := c.rec.Recording()
		if err != nil {
			return err
		}
		if err := ftdc.WritePrometheus(bw, rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram block with cumulative buckets.
// Write errors stick in bw and surface at its Flush.
func writePromHistogram(bw *bufio.Writer, hn string, h *metrics.Histogram) {
	name := ftdc.PromName(hn)
	fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
	var cum uint64
	for i := 0; i < h.Buckets(); i++ {
		cum += h.Count(i)
		fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, promFloat(h.UpperBound(i)), cum)
	}
	cum += h.Overflow()
	fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(bw, "%s_sum %s\n", name, promFloat(h.Sum()))
	fmt.Fprintf(bw, "%s_count %d\n", name, h.N())
}
