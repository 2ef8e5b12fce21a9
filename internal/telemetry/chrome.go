package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"roborepair/internal/radio"
	"roborepair/internal/trace"
)

// Chrome trace_event process ids: one lane group per subsystem.
const (
	chromePidField     = 1 // failures, faults, report traffic
	chromePidRobots    = 2 // one thread lane per robot
	chromePidManager   = 3 // the centralized manager (when present)
	chromePidTelemetry = 4 // recorded columns as counter tracks
)

// ChromeOptions tunes the trace_event export.
type ChromeOptions struct {
	// TimeScale is trace microseconds per simulated second. The default
	// 1000 renders one sim second as one trace millisecond, so a 64000 s
	// run spans a comfortable 64 s of trace time in Perfetto.
	TimeScale float64
	// Collector, when non-nil, adds the recording's columns as counter
	// tracks.
	Collector *Collector
	// ManagerID labels the centralized manager's lane (0 when the run has
	// no manager).
	ManagerID radio.NodeID
}

func (o ChromeOptions) scale() float64 {
	if o.TimeScale <= 0 {
		return 1000
	}
	return o.TimeScale
}

// chromeEvent is one trace_event record. Field order is fixed, and Args
// maps marshal with sorted keys, so the export is byte-deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func meta(pid, tid int, kind, label string) chromeEvent {
	return chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": label}}
}

func instant(name string, ts float64, pid, tid int, args map[string]any) chromeEvent {
	return chromeEvent{Name: name, Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t", Args: args}
}

// repairSpan is a robot's trip for one failed node, from the first report
// of the failure to the replacement boot.
type repairSpan struct {
	robot      radio.NodeID
	node       radio.NodeID
	start, end float64
}

// WriteChromeTrace converts a causal event log into Chrome trace_event
// JSON that loads directly in chrome://tracing and ui.perfetto.dev:
// per-robot thread lanes carry repair slices (first report → replacement
// boot) and instant markers (location updates, breakdowns, takeovers,
// dispatches); the field process carries failure, fault, and report
// markers; the manager gets its own lane; and, when a Collector is
// supplied, every recorded column becomes a counter track. Repair slices on
// one robot lane are clamped to be non-overlapping (queue wait folds into
// the earliest running slice), keeping the JSON valid nesting-wise.
func WriteChromeTrace(w io.Writer, log *trace.Log, opt ChromeOptions) error {
	scale := opt.scale()
	events := log.Events()

	var out []chromeEvent
	out = append(out,
		meta(chromePidField, 0, "process_name", "field"),
		meta(chromePidField, 1, "thread_name", "failures"),
		meta(chromePidField, 2, "thread_name", "faults"),
		meta(chromePidField, 3, "thread_name", "reports"),
		meta(chromePidRobots, 0, "process_name", "robots"),
	)

	// Discover the robot lanes from every event attributable to a robot.
	robots := map[radio.NodeID]bool{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindLocationUpdate, trace.KindRobotFailure, trace.KindTakeover:
			robots[e.Node] = true
		case trace.KindReplacement, trace.KindDispatch, trace.KindRedispatch,
			trace.KindTaskStranded, trace.KindTaskRequeued:
			if e.Actor != 0 {
				robots[e.Actor] = true
			}
		}
	}
	robotIDs := make([]radio.NodeID, 0, len(robots))
	for id := range robots {
		robotIDs = append(robotIDs, id)
	}
	sort.Slice(robotIDs, func(i, j int) bool { return robotIDs[i] < robotIDs[j] })
	for _, id := range robotIDs {
		out = append(out, meta(chromePidRobots, int(id), "thread_name", fmt.Sprintf("robot-%d", id)))
	}
	if opt.ManagerID != 0 {
		out = append(out,
			meta(chromePidManager, 0, "process_name", "manager"),
			meta(chromePidManager, int(opt.ManagerID), "thread_name", fmt.Sprintf("manager-%d", opt.ManagerID)))
	}

	// Repair slices: first report (or the failure itself) → replacement.
	firstSeen := map[radio.NodeID]float64{} // node → earliest report/failure ts
	spansByRobot := map[radio.NodeID][]repairSpan{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindFailure, trace.KindReportSent:
			if _, ok := firstSeen[e.Node]; !ok {
				firstSeen[e.Node] = float64(e.At)
			}
		case trace.KindReplacement:
			if e.Actor == 0 {
				continue
			}
			start, ok := firstSeen[e.Node]
			if !ok {
				start = float64(e.At)
			}
			delete(firstSeen, e.Node) // a re-failure at the site starts fresh
			spansByRobot[e.Actor] = append(spansByRobot[e.Actor],
				repairSpan{robot: e.Actor, node: e.Node, start: start, end: float64(e.At)})
		}
	}
	for _, id := range robotIDs {
		spans := spansByRobot[id]
		sort.Slice(spans, func(i, j int) bool { return spans[i].end < spans[j].end })
		prevEnd := 0.0
		for _, s := range spans {
			start := s.start
			if start < prevEnd {
				start = prevEnd // fold queue wait into the running slice
			}
			if start > s.end {
				start = s.end
			}
			prevEnd = s.end
			dur := (s.end - start) * scale
			out = append(out, chromeEvent{
				Name: "repair", Ph: "X", Ts: start * scale, Dur: &dur,
				Pid: chromePidRobots, Tid: int(id),
				Args: map[string]any{"node": int(s.node), "reported_s": s.start, "done_s": s.end},
			})
		}
	}

	// Instant markers.
	for _, e := range events {
		ts := float64(e.At) * scale
		args := map[string]any{"node": int(e.Node), "x": e.Loc.X, "y": e.Loc.Y}
		switch e.Kind {
		case trace.KindFailure:
			out = append(out, instant("failure", ts, chromePidField, 1, args))
		case trace.KindFault:
			out = append(out, instant("fault", ts, chromePidField, 2, args))
		case trace.KindReportSent:
			out = append(out, instant("report-sent", ts, chromePidField, 3, args))
		case trace.KindReportRetx:
			out = append(out, instant("report-retx", ts, chromePidField, 3, args))
		case trace.KindReportDelivered:
			if opt.ManagerID != 0 && e.Actor == opt.ManagerID {
				out = append(out, instant("report-delivered", ts, chromePidManager, int(opt.ManagerID), args))
			} else {
				out = append(out, instant("report-delivered", ts, chromePidField, 3, args))
			}
		case trace.KindLocationUpdate:
			out = append(out, instant("loc-update", ts, chromePidRobots, int(e.Node), args))
		case trace.KindRobotFailure:
			out = append(out, instant("robot-failure", ts, chromePidRobots, int(e.Node), args))
		case trace.KindTakeover:
			out = append(out, instant("takeover", ts, chromePidRobots, int(e.Node), args))
		case trace.KindDispatch:
			out = append(out, instant("dispatch", ts, chromePidRobots, int(e.Actor), args))
		case trace.KindRedispatch:
			out = append(out, instant("redispatch", ts, chromePidRobots, int(e.Actor), args))
		case trace.KindTaskStranded:
			out = append(out, instant("task-stranded", ts, chromePidRobots, int(e.Actor), args))
		case trace.KindTaskRequeued:
			out = append(out, instant("task-requeued", ts, chromePidRobots, int(e.Actor), args))
		case trace.KindManagerCrash:
			if opt.ManagerID != 0 {
				out = append(out, instant("manager-crash", ts, chromePidManager, int(opt.ManagerID), args))
			} else {
				out = append(out, instant("manager-crash", ts, chromePidField, 2, args))
			}
		}
	}

	// Recorded columns as counter tracks, timed by column 0.
	if opt.Collector != nil {
		rec, err := opt.Collector.rec.Recording()
		if err != nil {
			return err
		}
		names := rec.Schema.Cols
		out = append(out, meta(chromePidTelemetry, 0, "process_name", "telemetry"))
		rec.EachRow(func(_ int, row []float64) {
			for i, v := range row[1:] {
				out = append(out, chromeEvent{
					Name: names[i+1], Ph: "C", Ts: row[0] * scale,
					Pid: chromePidTelemetry, Tid: 0,
					Args: map[string]any{"value": v},
				})
			}
		})
	}

	// Stable chronological order (metadata first at ts 0); the assembly
	// order above is deterministic, so the sort result is too.
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Ph == "M", out[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return out[i].Ts < out[j].Ts
	})

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i := range out {
		b, err := json.Marshal(out[i])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(out)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, " %s%s\n", b, sep)
	}
	fmt.Fprintf(bw, "]}\n")
	return bw.Flush()
}
