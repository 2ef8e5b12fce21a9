package scenario

import (
	"fmt"
	"math"

	"roborepair/internal/ftdc"
	"roborepair/internal/metrics"
	"roborepair/internal/sim"
)

// Flight recorder columns, in sample order. Column 0 is the sample time.
// Every column records an integral value (raw counters rather than
// derived rates) so the recorder's integer delta mode applies and the
// capture stays an order of magnitude below the equivalent CSV. The
// recording is also telemetry's time series: its -timeseries CSV, gauge
// lines and counter tracks carry exactly these columns.
const (
	// FTDCColTime is the sample's simulated time in seconds.
	FTDCColTime = "t_s"
	// GaugePendingFailures is the repair backlog: sensors killed so far
	// minus replacements deployed.
	GaugePendingFailures = "pending_failures"
	// GaugeRobotQueueDepth is the total work queued on robots, counting an
	// in-service task as one.
	GaugeRobotQueueDepth = "robot_queue_depth"
	// GaugeInflightReports is the number of failure reports awaiting an ack
	// across all sensors (0 unless the reliability extension is on).
	GaugeInflightReports = "inflight_reports"
	// GaugeEventQueueDepth is the simulation kernel's pending event count.
	GaugeEventQueueDepth = "event_queue_depth"
	// FTDCColEventsFired is the kernel's cumulative fired-event count; its
	// difference over a sample period is the event rate.
	FTDCColEventsFired = "events_fired"
	// FTDCColViolations is the cumulative invariant-violation count (0
	// when Config.Invariants is off).
	FTDCColViolations = "violations"
	// FTDCColChaosActive is a bitmask of fault windows containing the
	// sample time: 1 loss burst, 2 blackout, 4 corruption, 8 manager
	// crashed, 16 battery drain (battery layer on).
	FTDCColChaosActive = "chaos_active"
	// FTDCColFailuresInjected, FTDCColRepairs, FTDCColReportsSent,
	// FTDCColReportsDelivered are the failure pipeline's cumulative
	// counters, as in Results.
	FTDCColFailuresInjected = "failures_injected"
	FTDCColRepairs          = "repairs"
	FTDCColReportsSent      = "reports_sent"
	FTDCColReportsDelivered = "reports_delivered"
	// FTDCColTxLocUpdate and FTDCColTxFailureReport are the cumulative
	// radio transmission counts of the two chattiest categories.
	FTDCColTxLocUpdate     = "tx_location_update"
	FTDCColTxFailureReport = "tx_failure_report"
	// GaugeFleetAlive is the number of operational robots (battery layer;
	// recorded only when Config.Battery is set).
	GaugeFleetAlive = "fleet_alive"
	// GaugeBatteryMinJ is the lowest pack level across live robots in whole
	// joules (battery layer; recorded only when Config.Battery is set).
	GaugeBatteryMinJ = "battery_min_j"
)

// Chaos bitmask bits for FTDCColChaosActive.
const (
	chaosBitLossBurst = 1 << iota
	chaosBitBlackout
	chaosBitCorruption
	chaosBitManagerCrashed
	chaosBitDrain
)

// ftdcColumns is the recorder schema: the time column, the gauges, then
// cumulative counters and the invariant/chaos markers. When the battery
// layer is on, startRecorder appends GaugeFleetAlive and GaugeBatteryMinJ
// after these, so battery-off captures keep the legacy layout.
var ftdcColumns = []string{
	FTDCColTime,
	GaugePendingFailures,
	GaugeRobotQueueDepth,
	GaugeInflightReports,
	GaugeEventQueueDepth,
	FTDCColEventsFired,
	FTDCColFailuresInjected,
	FTDCColRepairs,
	FTDCColReportsSent,
	FTDCColReportsDelivered,
	FTDCColTxLocUpdate,
	FTDCColTxFailureReport,
	FTDCColViolations,
	FTDCColChaosActive,
}

// gaugePendingFailures is the repair backlog: sensors killed so far minus
// replacements deployed.
func (w *World) gaugePendingFailures() float64 {
	pending := w.Injector.Killed() - w.repairs
	if pending < 0 {
		pending = 0
	}
	return float64(pending)
}

// gaugeRobotQueueDepth is the total work queued on robots, counting an
// in-service task as one.
func (w *World) gaugeRobotQueueDepth() float64 {
	depth := 0
	for _, r := range w.Robots {
		depth += r.QueueLen()
		if r.Busy() {
			depth++
		}
	}
	return float64(depth)
}

// gaugeInflightReports is the number of failure reports awaiting an ack
// across all sensors. Map iteration order varies, but a sum of ints is
// commutative, so the reading is deterministic.
func (w *World) gaugeInflightReports() float64 {
	inflight := 0
	for _, s := range w.Sensors {
		inflight += s.PendingReports()
	}
	return float64(inflight)
}

// gaugeEventQueueDepth is the simulation kernel's pending event count.
func (w *World) gaugeEventQueueDepth() float64 {
	return float64(w.Sched.Pending())
}

// gaugeFleetAlive is the number of operational robots.
func (w *World) gaugeFleetAlive() float64 {
	alive := 0
	for _, r := range w.Robots {
		if r.Alive() {
			alive++
		}
	}
	return float64(alive)
}

// gaugeBatteryMinJ is the lowest pack level across live robots, floored to
// whole joules so the recorder's integer delta mode applies (dead and
// chaos-failed robots are excluded: their packs are no longer news). The
// full fleet dead reads 0.
func (w *World) gaugeBatteryMinJ() float64 {
	min := math.Inf(1)
	for _, r := range w.Robots {
		if !r.Alive() {
			continue
		}
		if j := r.BatteryRemainingJ(); j < min {
			min = j
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return math.Floor(min)
}

// chaosActiveBits reports which fault windows contain time t.
func (w *World) chaosActiveBits(t float64) float64 {
	bits := 0
	if plan := w.Cfg.Faults; plan != nil {
		for _, b := range plan.LossBursts {
			if t >= b.From && t < b.To {
				bits |= chaosBitLossBurst
				break
			}
		}
		for _, b := range plan.Blackouts {
			if t >= b.From && t < b.To {
				bits |= chaosBitBlackout
				break
			}
		}
		for _, c := range plan.Corruptions {
			if t >= c.From && t < c.To {
				bits |= chaosBitCorruption
				break
			}
		}
		if w.Cfg.Battery != nil {
			// Drain windows are inert without the battery layer, so they only
			// flag when they actually bite.
			for _, d := range plan.Drains {
				if t >= d.From && t < d.To {
					bits |= chaosBitDrain
					break
				}
			}
		}
	}
	if w.managerCrashAt >= 0 {
		bits |= chaosBitManagerCrashed
	}
	return float64(bits)
}

// startRecorder builds the flight recorder and arms its sampling ticker
// (t=0, then every period). Called from New only when Config.Recorder or
// Config.Telemetry is enabled — with both off, World.Recorder stays nil
// and the run is bit-identical to an unrecorded one.
func (w *World) startRecorder() error {
	cfg := w.Cfg.Recorder
	cfg.Enabled = true
	cfg = cfg.WithDefaults()
	cols := ftdcColumns
	battery := w.Cfg.Battery != nil
	if battery {
		cols = append(append(make([]string, 0, len(ftdcColumns)+2), ftdcColumns...),
			GaugeFleetAlive, GaugeBatteryMinJ)
	}
	rec, err := ftdc.NewRecorder(ftdc.Schema{
		Cols:    cols,
		PeriodS: cfg.SamplePeriodS,
		Seed:    w.Cfg.Seed,
	}, cfg)
	if err != nil {
		return fmt.Errorf("scenario: recorder: %w", err)
	}
	w.Recorder = rec
	row := make([]float64, len(cols))
	sample := func() {
		t := float64(w.Sched.Now())
		violations := 0
		if w.inv != nil {
			violations = len(w.inv.Violations())
		}
		row[0] = t
		row[1] = w.gaugePendingFailures()
		row[2] = w.gaugeRobotQueueDepth()
		row[3] = w.gaugeInflightReports()
		row[4] = w.gaugeEventQueueDepth()
		row[5] = float64(w.Sched.Fired())
		row[6] = float64(w.Injector.Killed())
		row[7] = float64(w.repairs)
		row[8] = float64(w.reportsSent)
		row[9] = float64(w.reportsDelivered)
		row[10] = float64(w.Registry.Tx(metrics.CatLocUpdate))
		row[11] = float64(w.Registry.Tx(metrics.CatFailureReport))
		row[12] = float64(violations)
		row[13] = w.chaosActiveBits(t)
		if battery {
			row[14] = w.gaugeFleetAlive()
			row[15] = w.gaugeBatteryMinJ()
		}
		rec.Append(row)
	}
	if _, err := w.Sched.NewTicker(0, sim.Duration(cfg.SamplePeriodS), sample); err != nil {
		return fmt.Errorf("scenario: recorder: %w", err)
	}
	return nil
}
