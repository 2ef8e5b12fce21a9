// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock measured in seconds (type Time) and a
// priority queue of scheduled events. Events scheduled for the same instant
// fire in scheduling order, which makes every run with the same inputs fully
// reproducible. All simulated subsystems (radio medium, sensor beaconing,
// robot motion, coordination algorithms) are driven from a single Scheduler.
//
// The queue is a ladder queue (amortized O(1) per operation, built for
// million-node fields; see ladder.go) ordered by the strict (at, seq) total
// order — seq is unique per event. The tests hold it fire for fire against
// a binary heap reference implementation.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a virtual simulation timestamp in seconds since the start of the
// run. Virtual time is unrelated to wall-clock time: a 64000 s simulation
// completes in milliseconds of real time.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// TimeZero is the start of every simulation.
const TimeZero Time = 0

// TimeInf sorts after every reachable event time.
var TimeInf = Time(math.Inf(1))

// Seconds reports the timestamp as a plain float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Add returns the timestamp d seconds after t.
func (t Time) Add(d Duration) Time { return t + d }

// Sub returns the span between t and u (t − u).
func (t Time) Sub(u Time) Duration { return t - u }

// String formats the timestamp with millisecond resolution.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// ErrTimeInPast is returned when an event is scheduled before the current
// virtual time.
var ErrTimeInPast = errors.New("sim: event scheduled in the past")

// event is the scheduler-owned storage for one scheduled callback. Fired
// and cancelled events return to the scheduler's free list and are reused
// by later At/After calls, so steady-state scheduling allocates nothing.
// The generation counter makes stale Event handles inert after reuse.
//
// A field holds one pending beacon per sensor, so the layout is kept to
// the runtime's 32 B size class: three words, the generation and one
// state byte.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	gen   uint32
	state evState
}

// evState is where an event's storage is in its life cycle.
type evState uint8

const (
	evIdle   evState = iota // fresh from alloc, not yet pushed
	evQueued                // pending, or popped and about to be released
	evDead                  // lazily cancelled, awaiting physical removal (ladder)
	evFree                  // on the free list
)

// Audit receives the kernel's self-checks. Install one with SetAudit and
// the scheduler verifies its own bookkeeping at every dispatch and
// release, reporting breaches through Violation; without one the
// checks reduce to a nil test. The law names match the catalogue in the
// invariant package ("sim/clock-monotone", "sim/free-list",
// "sim/queue-integrity").
type Audit struct {
	// Violation reports one detected breach: the broken law's name, the
	// clock reading at detection, and a diagnostic with the disagreeing
	// numbers. Must be non-nil.
	Violation func(law string, at Time, detail string)
}

// SetAudit installs (or, with nil, removes) the kernel's audit sink.
func (s *Scheduler) SetAudit(a *Audit) { s.audit = a }

// Event is a cancellable handle to a scheduled callback. The zero value
// refers to no event: it reports not scheduled, and cancelling it is a
// no-op. Handles stay safe after the event fires or is cancelled — the
// underlying storage is recycled, but a stale handle can never touch the
// event that reused it.
type Event struct {
	e   *event
	gen uint32
}

// At reports the virtual time the event fires at, or 0 once the event has
// fired or been cancelled.
func (ev Event) At() Time {
	if !ev.Scheduled() {
		return 0
	}
	return ev.e.at
}

// Scheduled reports whether the event is still pending.
func (ev Event) Scheduled() bool {
	return ev.e != nil && ev.gen == ev.e.gen && ev.e.state == evQueued
}

// kernel is the priority-queue core behind a Scheduler: the ladder queue
// in production, a binary heap in the differential tests. An
// implementation must honor the strict (at, seq) total order. pop and peek
// return nil when no live event remains; cancel owns the full cancellation
// bookkeeping for its representation.
type kernel interface {
	push(*event)
	pop() *event
	peek() *event
	cancel(*event) bool
	len() int
	// each visits every live pending event in unspecified order without
	// perturbing the queue (checkpoint surface; see snapshot.go).
	each(func(*event))
}

// cmpEvent orders events by the kernel's strict (at, seq) total order.
func cmpEvent(a, b *event) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.seq != b.seq {
		if a.seq < b.seq {
			return -1
		}
		return 1
	}
	return 0
}

// Scheduler owns the virtual clock and the pending event queue.
//
// A Scheduler is not safe for concurrent use; the whole simulation is
// single-threaded by design so that runs are deterministic.
type Scheduler struct {
	now       Time
	seq       uint64
	k         kernel
	free      []*event // recycled event storage
	fired     uint64
	highWater int // deepest the queue has ever been
	stopped   bool
	audit     *Audit
}

// alloc takes an event from the free list, or allocates one.
func (s *Scheduler) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.state = evIdle
		return ev
	}
	return &event{}
}

// release returns a dequeued event to the free list. Bumping the
// generation invalidates every outstanding handle to it.
func (s *Scheduler) release(ev *event) {
	if s.audit != nil && ev.state == evFree {
		s.audit.Violation("sim/free-list", s.now, fmt.Sprintf(
			"event seq=%d gen=%d released twice", ev.seq, ev.gen))
		return
	}
	ev.fn = nil
	ev.gen++
	ev.state = evFree
	s.free = append(s.free, ev)
}

// NewScheduler returns a scheduler with the clock at TimeZero.
func NewScheduler() *Scheduler {
	s := &Scheduler{}
	s.k = newLadderQueue(s)
	return s
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports the number of events still queued.
func (s *Scheduler) Pending() int { return s.k.len() }

// Fired reports the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// HighWater reports the deepest the event queue has ever been — the
// kernel-side pressure stat behind the telemetry layer's event_queue_depth
// gauge.
func (s *Scheduler) HighWater() int { return s.highWater }

// At schedules fn to run at the absolute virtual time at. A time before
// the clock, or NaN, fails with ErrTimeInPast.
func (s *Scheduler) At(at Time, fn func()) (Event, error) {
	if !(at >= s.now) { // also rejects NaN, which no queue could order
		return Event{}, fmt.Errorf("%w: at=%v now=%v", ErrTimeInPast, at, s.now)
	}
	ev := s.alloc()
	ev.at, ev.seq, ev.fn = at, s.seq, fn
	s.seq++
	s.k.push(ev)
	if n := s.k.len(); n > s.highWater {
		s.highWater = n
	}
	return Event{e: ev, gen: ev.gen}, nil
}

// After schedules fn to run d seconds from now. A non-positive delay fires
// at the current instant, after all callbacks already queued for it. A NaN
// delay panics.
func (s *Scheduler) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	ev, err := s.At(s.now.Add(d), fn)
	if err != nil {
		// Only a NaN d gets here: now+d >= now for every other d >= 0.
		panic(err)
	}
	return ev
}

// Cancel removes a pending event. Cancelling a zero, already-fired, or
// already-cancelled event is a no-op and reports false.
func (s *Scheduler) Cancel(ev Event) bool {
	if !ev.Scheduled() {
		return false
	}
	return s.k.cancel(ev.e)
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	ev := s.k.pop()
	if ev == nil {
		return false
	}
	if s.audit != nil {
		if ev.at < s.now {
			s.audit.Violation("sim/clock-monotone", s.now, fmt.Sprintf(
				"event seq=%d fires at %v with the clock already at %v", ev.seq, ev.at, s.now))
		}
		if ev.state == evFree {
			s.audit.Violation("sim/queue-integrity", s.now, fmt.Sprintf(
				"dispatch of freed event storage seq=%d gen=%d", ev.seq, ev.gen))
		}
	}
	s.now = ev.at
	s.fired++
	fn := ev.fn
	// Recycle before running the callback so a reschedule-on-fire pattern
	// (tickers, retry timers) reuses this event's storage immediately.
	s.release(ev)
	if fn != nil {
		fn()
	}
	return true
}

// Run executes events until no events remain or the next event is strictly
// after until; the clock is left at min(until, last event time). It returns
// the number of events executed.
func (s *Scheduler) Run(until Time) uint64 {
	s.stopped = false
	var n uint64
	for !s.stopped {
		ev := s.k.peek()
		if ev == nil || ev.at > until {
			break
		}
		s.Step()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunAll executes every pending event, including events scheduled by the
// events themselves, and returns the count executed.
func (s *Scheduler) RunAll() uint64 {
	s.stopped = false
	var n uint64
	for s.k.len() > 0 && !s.stopped {
		s.Step()
		n++
	}
	return n
}

// Stop makes the active Run/RunAll return after the current event finishes.
func (s *Scheduler) Stop() { s.stopped = true }

// Ticker fires a callback at a fixed period until stopped.
type Ticker struct {
	s      *Scheduler
	period Duration
	fn     func()
	fire   func() // t.tick bound once, so re-arming allocates nothing
	ev     Event
	stop   bool
}

// NewTicker schedules fn every period seconds, first firing at now+offset.
// Period must be positive and finite, offset not NaN.
func (s *Scheduler) NewTicker(offset, period Duration, fn func()) (*Ticker, error) {
	if !(period > 0) || math.IsInf(float64(period), 1) {
		return nil, fmt.Errorf("sim: ticker period %v not positive and finite", period)
	}
	if math.IsNaN(float64(offset)) {
		return nil, fmt.Errorf("sim: ticker offset %v not a number", offset)
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.fire = t.tick
	if offset < 0 {
		offset = 0
	}
	t.ev = s.After(offset, t.fire)
	return t, nil
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.ev = t.s.After(t.period, t.fire)
	}
}

// Stop cancels all future ticks.
func (t *Ticker) Stop() {
	t.stop = true
	t.s.Cancel(t.ev)
}

// Active reports whether the ticker will fire again.
func (t *Ticker) Active() bool { return !t.stop }
