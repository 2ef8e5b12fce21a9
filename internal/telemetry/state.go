package telemetry

import "roborepair/internal/checkpoint"

// AppendState serializes the collector's histograms in registration order
// (checkpoint section payload); registration order is itself
// deterministic per config. The time series rides the flight recorder's
// own section. Nil-safe: a world with telemetry off appends a single
// absent marker, so the section is still present and comparable.
func (c *Collector) AppendState(b []byte) []byte {
	if c == nil {
		return checkpoint.AppendBool(b, false)
	}
	b = checkpoint.AppendBool(b, true)
	b = checkpoint.AppendU32(b, uint32(len(c.histNames)))
	for _, name := range c.histNames {
		b = checkpoint.AppendString(b, name)
		b = c.hists[name].AppendState(b)
	}
	return b
}
