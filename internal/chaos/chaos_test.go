package chaos

import (
	"encoding/json"
	"reflect"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

func samplePlan() *FaultPlan {
	return &FaultPlan{
		RobotFailures:  []RobotFailure{{At: 8000, Robot: 0}},
		LossBursts:     []LossBurst{{From: 8000, To: 12000, P: 0.05}},
		Blackouts:      []Blackout{{From: 2000, To: 4000, Center: geom.Pt(100, 100), Radius: 80}},
		ManagerCrashAt: 16000,
	}
}

func TestParseRoundTrip(t *testing.T) {
	want := samplePlan()
	got, err := Parse(want.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", want.String(), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if p, err := Parse("  "); err != nil || p != nil {
		t.Fatalf("empty spec: plan=%v err=%v", p, err)
	}
	bad := []string{
		"robot=0",            // missing @
		"robot@100",          // missing index
		"burst@100=0.5",      // missing window end
		"burst@100-50=0.5",   // inverted window
		"burst@100-200=1.5",  // probability out of range
		"blackout@1-2=3,4",   // missing radius
		"blackout@1-2=3,4,0", // zero radius
		"mgr@-5",             // negative time
		"quake@100=9",        // unknown kind
		"robot@1=x",          // non-numeric index
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	want := samplePlan()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got := &FaultPlan{}
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("json round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestValidateRobotIndex(t *testing.T) {
	p := &FaultPlan{RobotFailures: []RobotFailure{{At: 10, Robot: 4}}}
	if err := p.Validate(4); err == nil {
		t.Fatal("robot index 4 accepted for a team of 4")
	}
	if err := p.Validate(5); err != nil {
		t.Fatalf("robot index 4 rejected for a team of 5: %v", err)
	}
	if err := (*FaultPlan)(nil).Validate(4); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
}

func TestEmptyAndFirstFault(t *testing.T) {
	if !(*FaultPlan)(nil).Empty() || !(&FaultPlan{}).Empty() {
		t.Fatal("nil/zero plan not Empty")
	}
	p := samplePlan()
	if p.Empty() {
		t.Fatal("sample plan Empty")
	}
}

// clock is a settable time source for model tests.
type clock struct{ t sim.Time }

func (c *clock) now() sim.Time { return c.t }

func TestLossInjectorWindows(t *testing.T) {
	c := &clock{}
	inj := NewLossInjector(
		[]LossBurst{{From: 100, To: 200, P: 1}},
		nil, c.now, rng.Split(1, "test"),
	)
	c.t = 50
	if inj.Drop(1, 2) {
		t.Fatal("dropped outside burst with nil base")
	}
	c.t = 150
	if !inj.Drop(1, 2) {
		t.Fatal("P=1 burst did not drop")
	}
	c.t = 200 // window is half-open
	if inj.Drop(1, 2) {
		t.Fatal("dropped at burst end")
	}
}

// alwaysDrop is a base model that drops everything.
type alwaysDrop struct{}

func (alwaysDrop) Drop(_, _ radio.NodeID) bool { return true }

func TestLossInjectorDelegatesToBase(t *testing.T) {
	c := &clock{t: 500}
	inj := NewLossInjector(
		[]LossBurst{{From: 100, To: 200, P: 0}},
		alwaysDrop{}, c.now, rng.Split(1, "test"),
	)
	if !inj.Drop(1, 2) {
		t.Fatal("base model not consulted outside burst")
	}
	if !inj.DropFrame(radio.Frame{Src: 1}, 2) {
		t.Fatal("DropFrame did not delegate to base")
	}
	c.t = 150 // a P=0 burst is a no-op: bursts add loss, the base still rules
	if !inj.Drop(1, 2) {
		t.Fatal("zero-probability burst suppressed the base model")
	}
}

func TestLossInjectorOverlapTakesMax(t *testing.T) {
	c := &clock{t: 150}
	inj := NewLossInjector(
		[]LossBurst{{From: 100, To: 200, P: 0}, {From: 140, To: 160, P: 1}},
		nil, c.now, rng.Split(1, "test"),
	)
	if !inj.Drop(1, 2) {
		t.Fatal("overlapping bursts did not resolve to the higher probability")
	}
}

func TestRegionOutage(t *testing.T) {
	c := &clock{}
	o := NewRegionOutage([]Blackout{{From: 100, To: 200, Center: geom.Pt(0, 0), Radius: 50}}, c.now)
	c.t = 150
	if !o.Silenced(geom.Pt(30, 0)) {
		t.Fatal("inside region not silenced during window")
	}
	if o.Silenced(geom.Pt(60, 0)) {
		t.Fatal("outside region silenced")
	}
	c.t = 50
	if o.Silenced(geom.Pt(30, 0)) {
		t.Fatal("silenced before window")
	}
	if NewRegionOutage(nil, c.now) != nil {
		t.Fatal("no blackouts should yield a nil outage")
	}
	var nilOutage *RegionOutage
	if nilOutage.Silenced(geom.Pt(0, 0)) {
		t.Fatal("nil outage silenced something")
	}
}
