package trace

import (
	"strings"
	"testing"

	"roborepair/internal/geom"
)

func TestDisabledLogIsSafe(t *testing.T) {
	l := New(0)
	l.Record(Event{Kind: KindFailure, Node: 1})
	if l.Enabled() || l.Len() != 0 || l.Count(KindFailure) != 0 {
		t.Fatal("capacity-0 log recorded something")
	}
	var nilLog *Log
	if nilLog.Enabled() || nilLog.Len() != 0 || nilLog.Events() != nil {
		t.Fatal("nil log not safe")
	}
	nilLog.Record(Event{}) // must not panic
	if nilLog.Count(KindFailure) != 0 {
		t.Fatal("nil log counters wrong")
	}
	if nilLog.Render(5) != "" || nilLog.Chains() != nil {
		t.Fatal("nil log accessors wrong")
	}
}

func TestUnboundedLog(t *testing.T) {
	l := New(-1)
	for i := 0; i < 1000; i++ {
		l.Record(Event{At: 1, Kind: KindFailure, Node: 1})
	}
	if l.Len() != 1000 {
		t.Fatalf("len=%d", l.Len())
	}
}

func TestBoundedLogEvictsFIFO(t *testing.T) {
	l := New(3)
	for i := 1; i <= 5; i++ {
		l.Record(Event{At: 1, Kind: KindFailure, Node: 1, Actor: 0, Loc: geom.Pt(float64(i), 0)})
	}
	if l.Len() != 3 {
		t.Fatalf("len=%d", l.Len())
	}
	ev := l.Events()
	if ev[0].Loc.X != 3 || ev[2].Loc.X != 5 {
		t.Fatalf("eviction order wrong: %v", ev)
	}
	// Counts include evicted events.
	if l.Count(KindFailure) != 5 {
		t.Fatalf("Count = %d", l.Count(KindFailure))
	}
}

func TestFilterAndForNode(t *testing.T) {
	l := New(-1)
	l.Record(Event{At: 1, Kind: KindFailure, Node: 7})
	l.Record(Event{At: 2, Kind: KindReportSent, Node: 7, Actor: 3})
	l.Record(Event{At: 3, Kind: KindFailure, Node: 8})
	if got := l.Count(KindFailure); got != 2 {
		t.Fatalf("failures = %d", got)
	}
	if got := len(l.ForNode(7)); got != 2 {
		t.Fatalf("node-7 events = %d", got)
	}
}

func TestChainReconstruction(t *testing.T) {
	l := New(-1)
	l.Record(Event{At: 100, Kind: KindFailure, Node: 7})
	l.Record(Event{At: 125, Kind: KindReportSent, Node: 7, Actor: 3})
	l.Record(Event{At: 125, Kind: KindDispatch, Node: 7, Actor: 50})
	l.Record(Event{At: 200, Kind: KindReplacement, Node: 7, Actor: 50})
	c, ok := l.ChainFor(7)
	if !ok || !c.Reported || !c.Repaired {
		t.Fatalf("chain = %+v, ok=%v", c, ok)
	}
	if c.DetectionDelay() != 25 {
		t.Fatalf("detection delay = %v", c.DetectionDelay())
	}
	if c.RepairDelay() != 100 {
		t.Fatalf("repair delay = %v", c.RepairDelay())
	}
}

func TestChainUnreportedUnrepaired(t *testing.T) {
	l := New(-1)
	l.Record(Event{At: 100, Kind: KindFailure, Node: 7})
	c, ok := l.ChainFor(7)
	if !ok || c.Reported || c.Repaired {
		t.Fatalf("chain = %+v", c)
	}
	if c.DetectionDelay() != 0 || c.RepairDelay() != 0 {
		t.Fatal("delays of missing stages should be 0")
	}
	if _, ok := l.ChainFor(99); ok {
		t.Fatal("unknown node should have no chain")
	}
}

func TestChainsEnumeratesFailures(t *testing.T) {
	l := New(-1)
	l.Record(Event{At: 1, Kind: KindFailure, Node: 1})
	l.Record(Event{At: 2, Kind: KindFailure, Node: 2})
	l.Record(Event{At: 3, Kind: KindReplacement, Node: 1, Actor: 50})
	chains := l.Chains()
	if len(chains) != 2 {
		t.Fatalf("chains = %d", len(chains))
	}
	if !chains[0].Repaired || chains[1].Repaired {
		t.Fatalf("chain states wrong: %+v", chains)
	}
}

func TestRenderLimits(t *testing.T) {
	l := New(-1)
	for i := 0; i < 10; i++ {
		l.Record(Event{At: 1, Kind: KindLocationUpdate, Node: 5})
	}
	out := l.Render(3)
	if !strings.Contains(out, "7 more events") {
		t.Fatalf("limit marker missing:\n%s", out)
	}
	full := l.Render(0)
	if strings.Count(full, "\n") != 10 {
		t.Fatalf("full render lines = %d", strings.Count(full, "\n"))
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		KindFailure:         "failure",
		KindReportSent:      "report-sent",
		KindReportDelivered: "report-delivered",
		KindDispatch:        "dispatch",
		KindLocationUpdate:  "location-update",
		KindReplacement:     "replacement",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 12.5, Kind: KindFailure, Node: 7, Actor: 3, Loc: geom.Pt(1, 2)}
	s := e.String()
	if !strings.Contains(s, "failure") || !strings.Contains(s, "n7") {
		t.Fatalf("event string = %q", s)
	}
}
