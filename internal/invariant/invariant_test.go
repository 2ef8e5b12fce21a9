package invariant

import (
	"strings"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

func newTestChecker(t *testing.T) (*Checker, *sim.Time) {
	t.Helper()
	now := new(sim.Time)
	return NewChecker(Config{Enabled: true}, func() sim.Time { return *now }), now
}

func wantLaw(t *testing.T, c *Checker, law string) Violation {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Law == law {
			return v
		}
	}
	t.Fatalf("no %s violation recorded; got %v", law, c.Violations())
	return Violation{}
}

func wantClean(t *testing.T, c *Checker) {
	t.Helper()
	if len(c.Violations()) != 0 {
		t.Fatalf("unexpected violations: %v", c.Violations())
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	if got := (Config{}).WithDefaults(); got.Limit != 0 {
		t.Fatalf("disabled config grew a limit: %+v", got)
	}
	if got := (Config{Enabled: true}).WithDefaults(); got.Limit != 100 {
		t.Fatalf("default limit = %d, want 100", got.Limit)
	}
	if got := (Config{Enabled: true, Limit: 7}).WithDefaults(); got.Limit != 7 {
		t.Fatalf("explicit limit overridden: %+v", got)
	}
	if err := (Config{Limit: -1}).Validate(); err == nil {
		t.Fatal("negative limit accepted")
	}
	if err := (Config{Enabled: true, Limit: 5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Law: LawUnitDisk, At: 12.5, Entity: "n3", Detail: "too far"}
	s := v.String()
	for _, want := range []string{LawUnitDisk, "12.500s", "n3", "too far"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q lacks %q", s, want)
		}
	}
	if s := (Violation{Law: LawFreeList, Detail: "x"}).String(); strings.Contains(s, "[") {
		t.Fatalf("entity-less violation renders brackets: %q", s)
	}
}

func TestViolationLimit(t *testing.T) {
	c := NewChecker(Config{Enabled: true, Limit: 2}, func() sim.Time { return 0 })
	for i := 0; i < 5; i++ {
		c.Violate(LawFreeList, "", "boom")
	}
	if got := len(c.Violations()); got != 2 {
		t.Fatalf("retained %d violations, want 2", got)
	}
}

func TestKernelAuditForwards(t *testing.T) {
	c, now := newTestChecker(t)
	*now = 42
	a := c.KernelAudit()
	a.Violation("sim/clock-monotone", 42, "backwards")
	v := wantLaw(t, c, LawClockMonotone)
	if v.At != 42 {
		t.Fatalf("violation at %v, want 42", v.At)
	}
}

func TestKinematicsLaw(t *testing.T) {
	c, now := newTestChecker(t)
	c.SetRobotSpeed(1)
	*now = 10
	// 10 m in 10 s at 1 m/s: exactly allowed.
	c.RobotMoved(3, geom.Pt(0, 0), 0, geom.Pt(10, 0))
	// Zero displacement at zero elapsed: allowed.
	c.RobotMoved(3, geom.Pt(10, 0), 10, geom.Pt(10, 0))
	wantClean(t, c)
	// 11 m in 10 s: teleport.
	c.RobotMoved(3, geom.Pt(0, 0), 0, geom.Pt(11, 0))
	v := wantLaw(t, c, LawKinematics)
	if v.Entity != "n3" {
		t.Fatalf("entity = %q, want n3", v.Entity)
	}
}

type testStation struct {
	id  radio.NodeID
	pos geom.Point
}

func (s *testStation) RadioID() radio.NodeID   { return s.id }
func (s *testStation) RadioPos() geom.Point    { return s.pos }
func (s *testStation) RadioRange() float64     { return 100 }
func (s *testStation) RadioActive() bool       { return true }
func (s *testStation) HandleFrame(radio.Frame) {}

func TestRadioLaws(t *testing.T) {
	c, _ := newTestChecker(t)
	dst := &testStation{id: 2, pos: geom.Pt(50, 0)}
	uni := radio.Frame{Src: 1, Dst: 2}
	c.FrameSent(uni)
	c.FrameDelivered(uni, geom.Pt(0, 0), 100, dst)
	c.FrameSent(radio.Frame{Src: 1, Dst: radio.IDBroadcast})
	c.FrameDelivered(radio.Frame{Src: 1, Dst: radio.IDBroadcast}, geom.Pt(0, 0), 100, dst)
	wantClean(t, c)
	c.Finalize(Totals{})
	wantClean(t, c)

	// Delivery outside the disk.
	c.FrameDelivered(uni, geom.Pt(0, 0), 40, dst)
	wantLaw(t, c, LawUnitDisk)

	// Unicast delivered to the wrong station.
	c2, _ := newTestChecker(t)
	c2.FrameSent(uni)
	c2.FrameDelivered(radio.Frame{Src: 1, Dst: 9}, geom.Pt(0, 0), 100, dst)
	wantLaw(t, c2, LawTxConservation)

	// More unicast deliveries than transmissions.
	c3, _ := newTestChecker(t)
	c3.FrameDelivered(uni, geom.Pt(0, 0), 100, dst)
	c3.Finalize(Totals{})
	wantLaw(t, c3, LawTxConservation)
}

func TestFailureLifecycleConservation(t *testing.T) {
	site := geom.Pt(5, 5)
	c, _ := newTestChecker(t)
	c.SensorSpawned(10, site)
	c.FailureInjected(10, site)
	c.SensorSpawned(11, site) // replacement deploys before the task-done hook
	c.RepairCompleted(10, site)
	c.Finalize(Totals{FailuresInjected: 1, Repairs: 1})
	wantClean(t, c)
}

func TestFalsePositiveRepairIsBenign(t *testing.T) {
	site := geom.Pt(5, 5)
	c, _ := newTestChecker(t)
	c.SensorSpawned(10, site)
	// No failure: a blackout made the node look dead, and fire-and-forget
	// dispatch replaced it anyway.
	c.SensorSpawned(11, site)
	c.RepairCompleted(10, site)
	c.Finalize(Totals{Repairs: 1})
	wantClean(t, c)
}

func TestPhantomRepairViolates(t *testing.T) {
	c, _ := newTestChecker(t)
	c.RepairCompleted(99, geom.Pt(-3, -3))
	wantLaw(t, c, LawFailureConservation)
}

func TestKillWithoutSpawnViolates(t *testing.T) {
	c, _ := newTestChecker(t)
	c.FailureInjected(99, geom.Pt(1, 1))
	wantLaw(t, c, LawFailureConservation)
}

func TestDuplicateVisit(t *testing.T) {
	site := geom.Pt(2, 2)
	c, _ := newTestChecker(t)
	c.SensorSpawned(10, site)
	c.DuplicateVisit(site)
	c.Finalize(Totals{DuplicateRepairs: 1})
	wantClean(t, c)

	c2, _ := newTestChecker(t)
	c2.DuplicateVisit(site) // nothing alive there
	wantLaw(t, c2, LawFailureConservation)
}

func TestFinalizeCountMismatches(t *testing.T) {
	site := geom.Pt(1, 1)
	mk := func() *Checker {
		c, _ := newTestChecker(t)
		c.SensorSpawned(1, site)
		c.FailureInjected(1, site)
		return c
	}

	c := mk()
	c.Finalize(Totals{FailuresInjected: 2}) // counter disagrees with observed kills
	wantLaw(t, c, LawFailureConservation)

	c = mk()
	c.Finalize(Totals{FailuresInjected: 1, Repairs: 1}) // repair never observed
	wantLaw(t, c, LawFailureConservation)

	c = mk()
	c.Finalize(Totals{FailuresInjected: 1, DuplicateRepairs: 2})
	wantLaw(t, c, LawFailureConservation)

	c = mk()
	// One site holds the open failure; claiming two unrepaired sites breaks
	// the bound.
	c.Finalize(Totals{FailuresInjected: 1, UnrepairedFailures: 2})
	wantLaw(t, c, LawFailureConservation)

	c = mk()
	c.Finalize(Totals{FailuresInjected: 1, UnrepairedFailures: 1})
	wantClean(t, c)
}

func TestReportSeqLaws(t *testing.T) {
	c, _ := newTestChecker(t)
	c.ReportSent(7, 1)
	c.ReportSent(7, 2)
	c.ReportSent(8, 1) // same seq from another reporter is fine
	c.ReportRetx(7, 2)
	c.ReportAcked(7, 1)
	wantClean(t, c)

	c.ReportSent(7, 1) // reuse
	wantLaw(t, c, LawReportSeq)

	c2, _ := newTestChecker(t)
	c2.ReportSent(7, 0)
	wantLaw(t, c2, LawReportSeq)

	c3, _ := newTestChecker(t)
	c3.ReportRetx(7, 4)
	wantLaw(t, c3, LawReportSeq)

	c4, _ := newTestChecker(t)
	c4.ReportAcked(7, 4)
	wantLaw(t, c4, LawReportAck)
}
