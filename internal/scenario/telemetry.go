package scenario

import (
	"roborepair/internal/radio"
	"roborepair/internal/telemetry"
)

// Telemetry histogram names. Chosen to not collide with the registry's
// Prometheus-exported series and histogram names.
const (
	// TelHistRepairDelay buckets failure→replacement latency (sim seconds).
	TelHistRepairDelay = "repair_delay_seconds"
	// TelHistReportHops buckets the hop count of delivered failure reports.
	TelHistReportHops = "report_delivery_hops"
	// TelHistReportRetx buckets the retransmission attempt index of each
	// resent failure report (reliability extension).
	TelHistReportRetx = "report_retx_attempt"
	// TelHistTripMeters buckets the per-repair robot trip distance.
	TelHistTripMeters = "robot_trip_meters"
	// TelHistDecodeFail buckets the sim time (seconds) of each frame the
	// hostile channel's defensive decoder dropped, so corruption windows
	// show up as mass in the matching buckets. Registered only when the
	// fault plan has corruption windows.
	TelHistDecodeFail = "decode_failures"
)

// startTelemetry builds the collector over the flight recorder and
// registers the standard histograms. Called from New only when
// Config.Telemetry.Enabled, after startRecorder — with telemetry off,
// World.Telemetry stays nil and every hook feed reduces to one nil check.
func (w *World) startTelemetry() {
	c := telemetry.NewCollector(w.Recorder)
	w.Telemetry = c

	// Histograms fed by the lifecycle hooks in New. First-bucket widths and
	// counts size each to the quantity's plausible range: repair delay
	// 0..8 s through km-scale backlogs, hops and retx small integers, trips
	// a few meters through field diagonals.
	w.telRepairDelay = c.Histogram(TelHistRepairDelay, 8, 16)
	w.telReportHops = c.Histogram(TelHistReportHops, 1, 8)
	w.telReportRetx = c.Histogram(TelHistReportRetx, 1, 8)
	w.telTrip = c.Histogram(TelHistTripMeters, 4, 16)
	if w.hostile {
		// Doubling buckets over sim time: 0..64 s in the first, the paper's
		// full 64000 s horizon inside the last.
		decode := c.Histogram(TelHistDecodeFail, 64, 12)
		w.Medium.SetChannelDropHook(func(radio.Frame) {
			decode.Add(float64(w.Sched.Now()))
		})
	}
}
