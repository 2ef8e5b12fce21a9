package node

import (
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
)

// TestFailNowBetweenBeacons fails a booted sensor between two beacon
// ticks: the pending tick must be cancelled, not left to fire, and no
// beacon may follow.
func TestFailNowBetweenBeacons(t *testing.T) {
	h := newHarness()
	s := h.addSensor(1, geom.Pt(0, 0), allowAll{}, Hooks{})
	h.sched.Run(15) // boot; ticks at 1 and 11, the next due at 21
	if !s.beat.Scheduled() || s.beat.At() != 21 {
		t.Fatalf("beacon tick scheduled %v at %v, want pending at 21", s.beat.Scheduled(), s.beat.At())
	}
	if n := h.sched.Pending(); n != 1 {
		t.Fatalf("%d events pending after boot, want only the beacon tick", n)
	}
	sent := h.reg.Tx(metrics.CatBeacon)
	s.FailNow()
	if s.beat.Scheduled() {
		t.Fatal("FailNow left the beacon tick scheduled")
	}
	if n := h.sched.Pending(); n != 0 {
		t.Fatalf("%d events pending after FailNow, want 0", n)
	}
	fired := h.sched.Fired()
	h.sched.Run(100)
	if got := h.reg.Tx(metrics.CatBeacon); got != sent {
		t.Fatalf("a failed sensor sent %d more beacons", got-sent)
	}
	if h.sched.Fired() != fired {
		t.Fatalf("%d events fired after FailNow, want none", h.sched.Fired()-fired)
	}
}

// TestRetransmissionRearmAllocatesNothing pins the bound retransmission
// callback: an orphaned guardian's pending report re-arms its timer on
// every retry, and running through those retries (one per op, with the
// beacon ticks between them) allocates nothing.
func TestRetransmissionRearmAllocatesNothing(t *testing.T) {
	h := newHarness()
	cfg := testConfig()
	cfg.Reliability = Reliability{RetryBase: 1, RetryMax: 2}
	s := NewSensor(1, geom.Pt(0, 0), &Env{Config: cfg, Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium})
	s.Start(0.1, 1, false)
	h.sched.Run(6)
	// No robot is known, so each retry skips the transmission but keeps
	// the timer armed, once per RetryBase.
	s.report(50, geom.Pt(10, 0), h.sched.Now())
	h.sched.Run(h.sched.Now() + 10)
	if s.PendingReports() != 1 || !s.pending[0].ev.Scheduled() {
		t.Fatal("the orphaned report is not armed for a retry")
	}
	fired := h.sched.Fired()
	until := h.sched.Now()
	retry := func() {
		until += cfg.Reliability.RetryBase
		h.sched.Run(until)
	}
	if allocs := testing.AllocsPerRun(50, retry); allocs != 0 {
		t.Fatalf("a retry allocates %v times, want 0", allocs)
	}
	if n := h.sched.Fired() - fired; n < 51 {
		t.Fatalf("%d events fired over 51 retry periods, want a retry in each", n)
	}
	if !s.pending[0].ev.Scheduled() {
		t.Fatal("the retries stopped re-arming")
	}
}
