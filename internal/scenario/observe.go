package scenario

import (
	"roborepair/internal/geom"
	"roborepair/internal/invariant"
	"roborepair/internal/metrics"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/telemetry"
	"roborepair/internal/trace"
)

// The world's hooks emit one record per lifecycle event to World.observers,
// built once in New: the invariant checker, the trace ring, the telemetry
// histograms, each only when its layer is on; a default config has none.

// Observer-only kinds: lifecycle events the trace ring never stored. They
// are negative, so the ring keeps exactly the positive trace.Kind values.
const (
	kindSpawn          trace.Kind = -1 - iota // a sensor joined the field (Node, Loc)
	kindMove                                  // a robot fixed its position (Node, Loc, From, FromAt)
	kindReportAcked                           // a guardian accepted an ack for its report (Actor, Seq)
	kindDuplicateVisit                        // a trip ended at a site a live sensor covers (Loc, Dist)
)

// record is one lifecycle event: the trace event plus the values observers
// read beyond it.
type record struct {
	trace.Event
	Count  int          // a delivered report's hops, a retransmission's attempt
	Seq    uint64       // the report's sequence number (0 without reliability)
	Dist   float64      // the trip's length
	Delay  sim.Duration // report to replacement
	From   geom.Point   // a robot's previous position fix
	FromAt sim.Time     // and its time
}

type observer interface {
	observe(r record)
}

// emit hands r to every observer in slice order.
func (w *World) emit(r record) {
	for _, o := range w.observers {
		o.observe(r)
	}
}

// event returns a trace event of kind k at the current simulation time.
func (w *World) event(k trace.Kind, node, actor radio.NodeID, loc geom.Point) trace.Event {
	return trace.Event{At: w.Sched.Now(), Kind: k, Node: node, Actor: actor, Loc: loc}
}

// mark emits a record that is only its trace event.
func (w *World) mark(k trace.Kind, node, actor radio.NodeID, loc geom.Point) {
	w.emit(record{Event: w.event(k, node, actor, loc)})
}

// startTrace appends the causal trace ring.
func (w *World) startTrace(capacity int) {
	w.Trace = trace.New(capacity)
	w.observers = append(w.observers, traceObserver{w.Trace})
}

type traceObserver struct{ log *trace.Log }

func (o traceObserver) observe(r record) {
	if r.Kind > 0 {
		o.log.Record(r.Event)
	}
}

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

// startTelemetry builds the collector over the flight recorder and appends
// the observer that feeds its histograms. Called from New only when
// Config.Telemetry.Enabled, after startRecorder.
func (w *World) startTelemetry() {
	c := telemetry.NewCollector(w.Recorder)
	w.Telemetry = c
	// First-bucket widths and counts size each histogram to the quantity's
	// plausible range: repair delay 0..8 s through km-scale backlogs, hops
	// and retx small integers, trips a few meters through field diagonals.
	w.observers = append(w.observers, &telemetryObserver{
		repairDelay: c.Histogram(TelHistRepairDelay, 8, 16),
		reportHops:  c.Histogram(TelHistReportHops, 1, 8),
		reportRetx:  c.Histogram(TelHistReportRetx, 1, 8),
		trip:        c.Histogram(TelHistTripMeters, 4, 16),
	})
	if w.hostile {
		// Doubling buckets over sim time: 0..64 s in the first, the paper's
		// full 64000 s horizon inside the last.
		decode := c.Histogram(TelHistDecodeFail, 64, 12)
		w.Medium.SetChannelDropHook(func(radio.Frame) {
			decode.Add(float64(w.Sched.Now()))
		})
	}
}

type telemetryObserver struct {
	repairDelay, reportHops, reportRetx, trip *metrics.Histogram
}

func (o *telemetryObserver) observe(r record) {
	switch r.Kind {
	case trace.KindReplacement:
		o.trip.Add(r.Dist)
		o.repairDelay.Add(float64(r.Delay))
	case kindDuplicateVisit:
		// The trip was driven although no node got replaced.
		o.trip.Add(r.Dist)
	case trace.KindReportDelivered:
		o.reportHops.Add(float64(r.Count))
	case trace.KindReportRetx:
		o.reportRetx.Add(float64(r.Count))
	}
}

// startInvariants builds the run's conservation-law checker, installs the
// kernel and medium probes and appends the checker's observer. Called
// before any sensor or robot is created, so the observer sees every spawn.
func (w *World) startInvariants() {
	w.inv = invariant.NewChecker(w.Cfg.Invariants, w.Sched.Now)
	w.inv.SetRobotSpeed(w.Cfg.RobotSpeed)
	if bc := w.Cfg.Battery; bc != nil {
		// Joules per meter at cruise speed: the motion-floor cross-check of
		// the energy-conservation law (spent must cover every traveled meter).
		b := bc.withDefaults()
		w.inv.SetMotionEnergy(b.model().MotionPowerW(w.Cfg.RobotSpeed) / w.Cfg.RobotSpeed)
	}
	w.Sched.SetAudit(w.inv.KernelAudit())
	w.Medium.SetAuditor(w.inv)
	w.observers = append(w.observers, invariantObserver{w.inv})
}

// finalizeInvariants runs the end-of-run conservation cross-checks against
// the counters res reports (after results settled the batteries), and
// adds the checker's violations to it.
func (w *World) finalizeInvariants(res *Results) {
	if w.inv == nil {
		return
	}
	if w.Cfg.Battery != nil {
		for _, r := range w.Robots {
			b := r.Battery()
			w.inv.RobotEnergy(r.ID(), b.CapacityJ, b.SpentJ, b.RemainingJ, b.RechargedJ, r.Traveled())
		}
	}
	w.inv.Finalize(invariant.Totals{
		FailuresInjected:   res.FailuresInjected,
		Repairs:            res.Repairs,
		DuplicateRepairs:   res.DuplicateRepairs,
		UnrepairedFailures: res.UnrepairedFailures,
	})
	res.Violations = w.inv.Violations()
}

type invariantObserver struct{ c *invariant.Checker }

func (o invariantObserver) observe(r record) {
	switch r.Kind {
	case kindSpawn:
		o.c.SensorSpawned(r.Node, r.Loc)
	case trace.KindFailure:
		o.c.FailureInjected(r.Node, r.Loc)
	case trace.KindReplacement:
		o.c.RepairCompleted(r.Node, r.Loc)
	case kindDuplicateVisit:
		o.c.DuplicateVisit(r.Loc)
	case trace.KindReportSent:
		if r.Seq > 0 {
			o.c.ReportSent(r.Actor, r.Seq)
		}
	case trace.KindReportRetx:
		if r.Seq > 0 {
			o.c.ReportRetx(r.Actor, r.Seq)
		}
	case kindReportAcked:
		o.c.ReportAcked(r.Actor, r.Seq)
	case trace.KindRobotFailure:
		o.c.RobotDied(r.Node)
	case kindMove:
		o.c.RobotMoved(r.Node, r.From, r.FromAt, r.Loc)
	}
}
