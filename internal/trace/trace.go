// Package trace records the causal chain of every failure: injection →
// guardian detection → report → (dispatch) → robot arrival → replacement.
// The scenario runner feeds it from event hooks; tests use it to assert
// end-to-end causality, and cmd/tracer and repairsim -tail-trace render it
// for humans.
package trace

import (
	"fmt"
	"strings"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

// Kind classifies a traced event.
type Kind int

// Event kinds, in rough causal order of a failure's lifecycle.
const (
	KindFailure Kind = iota + 1
	KindReportSent
	KindReportDelivered
	KindDispatch
	KindLocationUpdate
	KindReplacement
	// Reliability-extension kinds: injected faults and the recovery
	// machinery reacting to them.
	KindRobotFailure // a robot broke down (Node = robot)
	KindTaskStranded // a task died with its robot (Node = failed sensor, Actor = robot)
	KindTaskRequeued // a stranded task moved to a survivor (Node = failed sensor, Actor = new robot)
	KindReportRetx   // a guardian retransmitted an unacked report
	KindRedispatch   // the dispatcher re-issued an outstanding request
	KindManagerCrash // the central manager died
	KindTakeover     // a robot assumed the manager role (Node = new manager)
	KindFault        // an injected environmental fault window opened (loss burst, blackout)
	// Energy-extension kinds (battery layer): resource exhaustion and the
	// graceful-degradation machinery reacting to it.
	KindBatteryDeath // a robot's battery hit zero and it died in place (Node = robot)
	KindRecharge     // a robot finished recharging at the depot (Node = robot)
	KindTaskHandoff  // a low-battery robot handed a task back (Node = failed sensor, Actor = donor robot)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFailure:
		return "failure"
	case KindReportSent:
		return "report-sent"
	case KindReportDelivered:
		return "report-delivered"
	case KindDispatch:
		return "dispatch"
	case KindLocationUpdate:
		return "location-update"
	case KindReplacement:
		return "replacement"
	case KindRobotFailure:
		return "robot-failure"
	case KindTaskStranded:
		return "task-stranded"
	case KindTaskRequeued:
		return "task-requeued"
	case KindReportRetx:
		return "report-retx"
	case KindRedispatch:
		return "redispatch"
	case KindManagerCrash:
		return "manager-crash"
	case KindTakeover:
		return "takeover"
	case KindFault:
		return "fault"
	case KindBatteryDeath:
		return "battery-death"
	case KindRecharge:
		return "recharge"
	case KindTaskHandoff:
		return "task-handoff"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one record in the log.
type Event struct {
	At   sim.Time
	Kind Kind
	// Node is the subject: the failed/replaced sensor, or the robot for
	// location updates.
	Node radio.NodeID
	// Actor is who acted: the reporting guardian, the dispatching
	// manager, the repairing robot.
	Actor radio.NodeID
	Loc   geom.Point
}

// String renders one event line.
func (e Event) String() string {
	return fmt.Sprintf("%10.1fs  %-17s node=%v actor=%v at %v",
		float64(e.At), e.Kind, e.Node, e.Actor, e.Loc)
}

// Log is a bounded event recorder. A zero capacity records nothing (all
// methods stay safe); a negative capacity records without bound.
type Log struct {
	cap    int
	events []Event
	counts map[Kind]int
}

// New returns a log holding at most capacity events (FIFO eviction).
// capacity == 0 disables recording; capacity < 0 is unbounded.
func New(capacity int) *Log {
	return &Log{cap: capacity, counts: make(map[Kind]int)}
}

// Enabled reports whether the log records anything.
func (l *Log) Enabled() bool { return l != nil && l.cap != 0 }

// Record appends an event, evicting the oldest when full.
func (l *Log) Record(e Event) {
	if !l.Enabled() {
		return
	}
	l.counts[e.Kind]++
	if l.cap > 0 && len(l.events) >= l.cap {
		copy(l.events, l.events[1:])
		l.events = l.events[:len(l.events)-1]
	}
	l.events = append(l.events, e)
}

// Len reports the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// Count reports how many events of kind k were recorded (including
// evicted ones).
func (l *Log) Count(k Kind) int {
	if l == nil {
		return 0
	}
	return l.counts[k]
}

// Events returns a copy of the retained events in record order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// ForNode returns the retained events whose subject is id — the lifecycle
// of one sensor.
func (l *Log) ForNode(id radio.NodeID) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for _, e := range l.events {
		if e.Node == id {
			out = append(out, e)
		}
	}
	return out
}

// Chain summarizes a failed node's lifecycle: the times of each stage, or
// ok=false if the node's failure is not in the log.
type Chain struct {
	Failed    radio.NodeID
	FailureAt sim.Time
	ReportAt  sim.Time
	RepairAt  sim.Time
	Reported  bool
	Repaired  bool
}

// DetectionDelay is the failure→report latency (0 if unreported).
func (c Chain) DetectionDelay() sim.Duration {
	if !c.Reported {
		return 0
	}
	return c.ReportAt.Sub(c.FailureAt)
}

// RepairDelay is the failure→replacement latency (0 if unrepaired).
func (c Chain) RepairDelay() sim.Duration {
	if !c.Repaired {
		return 0
	}
	return c.RepairAt.Sub(c.FailureAt)
}

// ChainFor reconstructs the lifecycle of one failed node.
func (l *Log) ChainFor(id radio.NodeID) (Chain, bool) {
	c := Chain{Failed: id}
	found := false
	for _, e := range l.ForNode(id) {
		switch e.Kind {
		case KindFailure:
			c.FailureAt = e.At
			found = true
		case KindReportSent:
			if !c.Reported {
				c.ReportAt = e.At
				c.Reported = true
			}
		case KindReplacement:
			if !c.Repaired {
				c.RepairAt = e.At
				c.Repaired = true
			}
		}
	}
	return c, found
}

// Chains reconstructs the lifecycle of every failed node in the log.
func (l *Log) Chains() []Chain {
	if l == nil {
		return nil
	}
	var out []Chain
	for _, e := range l.events {
		if e.Kind == KindFailure {
			if c, ok := l.ChainFor(e.Node); ok {
				out = append(out, c)
			}
		}
	}
	return out
}

// Render writes the retained events as text, at most limit lines
// (limit ≤ 0 renders everything).
func (l *Log) Render(limit int) string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	for i, e := range l.events {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&b, "… %d more events\n", len(l.events)-i)
			break
		}
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
