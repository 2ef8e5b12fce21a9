package sim

import (
	"strings"
	"testing"
)

// recordingAudit collects kernel violations for inspection.
type recordingAudit struct {
	laws    []string
	details []string
}

func (a *recordingAudit) install(s *Scheduler) {
	s.SetAudit(&Audit{Violation: func(law string, _ Time, detail string) {
		a.laws = append(a.laws, law)
		a.details = append(a.details, detail)
	}})
}

func (a *recordingAudit) has(law string) bool {
	for _, l := range a.laws {
		if l == law {
			return true
		}
	}
	return false
}

// TestAuditCleanKernel: ordinary scheduling traffic — including cancels,
// reschedule-on-fire, and free-list reuse — raises no violations.
func TestAuditCleanKernel(t *testing.T) {
	s := NewScheduler()
	var a recordingAudit
	a.install(s)
	var fired int
	for i := 0; i < 50; i++ {
		at := Time(i % 7)
		ev, err := s.At(at, func() { fired++ })
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			s.Cancel(ev)
		}
	}
	s.After(1, func() { s.After(1, func() { fired++ }) })
	s.RunAll()
	if fired == 0 {
		t.Fatal("nothing fired")
	}
	if len(a.laws) != 0 {
		t.Fatalf("clean kernel raised violations: %v", a.laws)
	}
}

// TestAuditDoubleFree: releasing the same event storage twice (the bug the
// free list's generation counters exist to survive) is reported once the
// audit is installed, and the corrupting second append is suppressed.
func TestAuditDoubleFree(t *testing.T) {
	s := NewScheduler()
	var a recordingAudit
	a.install(s)
	ev, err := s.At(5, func() {})
	if err != nil {
		t.Fatal(err)
	}
	s.Step() // fires the event and releases its storage
	free := len(s.free)
	s.release(ev.e) // the bug
	if !a.has("sim/free-list") {
		t.Fatalf("double free not reported; laws: %v", a.laws)
	}
	if len(s.free) != free {
		t.Fatal("double-freed event appended to the free list again")
	}
}

// TestAuditStaleDispatch: an event still queued after its storage was
// freed (a use-after-free in kernel terms) is flagged at dispatch.
func TestAuditStaleDispatch(t *testing.T) {
	s := NewScheduler()
	var a recordingAudit
	a.install(s)
	ev, err := s.At(5, func() {})
	if err != nil {
		t.Fatal(err)
	}
	ev.e.state = evFree // simulate freed storage left in the queue
	s.Step()
	if !a.has("sim/queue-integrity") {
		t.Fatalf("stale dispatch not reported; laws: %v", a.laws)
	}
}

// TestAuditClockMonotone: an event timestamped before the current clock
// (impossible through At, which rejects past times) is flagged.
func TestAuditClockMonotone(t *testing.T) {
	s := NewScheduler()
	var a recordingAudit
	a.install(s)
	if _, err := s.At(10, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Step() // clock at 10
	ev := s.alloc()
	ev.at, ev.seq, ev.fn = 3, s.seq, func() {}
	s.seq++
	s.k.push(ev)
	s.Step()
	if !a.has("sim/clock-monotone") {
		t.Fatalf("clock regression not reported; laws: %v", a.laws)
	}
	if len(a.details) == 0 || !strings.Contains(a.details[0], "3") {
		t.Fatalf("detail lacks the offending timestamp: %v", a.details)
	}
}

// TestNoAuditKeepsBehavior: without an installed audit the kernel runs the
// same traffic unchecked — the nil path must stay inert.
func TestNoAuditKeepsBehavior(t *testing.T) {
	s := NewScheduler()
	var fired int
	for i := 0; i < 20; i++ {
		s.After(Time(i), func() { fired++ })
	}
	s.RunAll()
	if fired != 20 {
		t.Fatalf("fired %d of 20", fired)
	}
}
