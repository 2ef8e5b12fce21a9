package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Time
		want Time
	}{
		{"add", Time(10).Add(5), 15},
		{"add negative", Time(10).Add(-3), 7},
		{"sub", Time(10).Sub(4), 6},
		{"zero add", TimeZero.Add(0), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Fatalf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestTimeComparisons(t *testing.T) {
	if !Time(3).After(2) {
		t.Error("3 should be after 2")
	}
	if !TimeInf.After(1e300) {
		t.Error("TimeInf should be after any finite time")
	}
}

func TestTimeString(t *testing.T) {
	if got, want := Time(1.5).String(), "1.500s"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := Time(42.25).Seconds(); got != 42.25 {
		t.Fatalf("Seconds() = %v, want 42.25", got)
	}
}

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(3, func() { order = append(order, 3) })
	s.After(1, func() { order = append(order, 1) })
	s.After(2, func() { order = append(order, 2) })
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
}

func TestSchedulerTieBreakIsFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5, func() { order = append(order, i) })
	}
	s.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestSchedulerAtRejectsPast(t *testing.T) {
	s := NewScheduler()
	s.After(10, func() {})
	s.RunAll()
	if _, err := s.At(5, func() {}); !errors.Is(err, ErrTimeInPast) {
		t.Fatalf("At(past) error = %v, want ErrTimeInPast", err)
	}
	// NaN compares false against the clock and every bucket bound, so a
	// queued NaN event would never fire.
	if _, err := s.At(Time(math.NaN()), func() {}); !errors.Is(err, ErrTimeInPast) {
		t.Fatalf("At(NaN) error = %v, want ErrTimeInPast", err)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after refused At calls", s.Pending())
	}
}

func TestSchedulerAfterNaNPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("After(NaN) did not panic")
		}
	}()
	s.After(Duration(math.NaN()), func() {})
}

func TestSchedulerAfterNegativeDelayFiresNow(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-5, func() { fired = true })
	s.RunAll()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v for a negative delay", s.Now())
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	ev := s.After(1, func() { fired = true })
	if !ev.Scheduled() {
		t.Fatal("event should be scheduled")
	}
	if !s.Cancel(ev) {
		t.Fatal("Cancel reported failure for a pending event")
	}
	if ev.Scheduled() {
		t.Fatal("event still scheduled after cancel")
	}
	if s.Cancel(ev) {
		t.Fatal("second Cancel should be a no-op")
	}
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerCancelZero(t *testing.T) {
	s := NewScheduler()
	if s.Cancel(Event{}) {
		t.Fatal("Cancel of the zero Event should report false")
	}
}

func TestSchedulerCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler()
	var got []int
	events := make([]Event, 0, 20)
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.After(Duration(i), func() { got = append(got, i) }))
	}
	// Cancel every third event, including heap-internal nodes.
	for i := 0; i < 20; i += 3 {
		s.Cancel(events[i])
	}
	s.RunAll()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 13 {
		t.Fatalf("fired %d events, want 13", len(got))
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Duration{1, 2, 3, 4, 5} {
		at := at
		s.After(at, func() { fired = append(fired, Time(at)) })
	}
	n := s.Run(3)
	if n != 3 {
		t.Fatalf("Run(3) executed %d events, want 3", n)
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
}

func TestSchedulerRunAdvancesClockToUntil(t *testing.T) {
	s := NewScheduler()
	s.Run(100)
	if s.Now() != 100 {
		t.Fatalf("empty Run(100) left clock at %v", s.Now())
	}
}

func TestSchedulerEventsScheduleEvents(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(1, recurse)
		}
	}
	s.After(1, recurse)
	s.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", s.Now())
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.After(Duration(i+1), func() {
			count++
			if count == 4 {
				s.Stop()
			}
		})
	}
	s.RunAll()
	if count != 4 {
		t.Fatalf("Stop did not halt the loop: count = %d", count)
	}
	if s.Pending() != 6 {
		t.Fatalf("Pending() = %d, want 6", s.Pending())
	}
}

func TestSchedulerFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.After(1, func() {})
	}
	s.RunAll()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	s := NewScheduler()
	var times []Time
	tk, err := s.NewTicker(0, 10, func() { times = append(times, s.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	s.Run(35)
	tk.Stop()
	want := []Time{0, 10, 20, 30}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times, want %d: %v", len(times), len(want), times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerOffset(t *testing.T) {
	s := NewScheduler()
	var first Time = -1
	tk, err := s.NewTicker(3, 10, func() {
		if first < 0 {
			first = s.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(50)
	tk.Stop()
	if first != 3 {
		t.Fatalf("first tick at %v, want 3", first)
	}
}

func TestTickerStopPreventsFutureTicks(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tk *Ticker
	var err error
	tk, err = s.NewTicker(0, 1, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop, want 3", count)
	}
	if tk.Active() {
		t.Fatal("ticker still active after Stop")
	}
}

// TestTickerRejectsNonPositivePeriod also covers non-finite periods and a
// NaN offset.
func TestTickerRejectsNonPositivePeriod(t *testing.T) {
	s := NewScheduler()
	for _, tt := range []struct{ offset, period Duration }{
		{0, 0},
		{0, -1},
		{0, Duration(math.NaN())},
		{0, TimeInf},
		{Duration(math.NaN()), 10},
	} {
		if _, err := s.NewTicker(tt.offset, tt.period, func() {}); err == nil {
			t.Errorf("NewTicker(offset=%v, period=%v) should fail", tt.offset, tt.period)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after refused tickers", s.Pending())
	}
}

func TestTickerNegativeOffsetClamped(t *testing.T) {
	s := NewScheduler()
	var first Time = -1
	_, err := s.NewTicker(-5, 10, func() {
		if first < 0 {
			first = s.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	if first != 0 {
		t.Fatalf("first tick at %v, want 0", first)
	}
}

// Property: for any set of non-negative delays, RunAll fires events in
// non-decreasing time order and ends with the clock at the maximum delay.
func TestPropertySchedulerOrdering(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewScheduler()
		var fired []Time
		var maxAt Time
		for _, r := range raw {
			at := Duration(r % 1000)
			if Time(at) > maxAt {
				maxAt = Time(at)
			}
			s.After(at, func() { fired = append(fired, s.Now()) })
		}
		s.RunAll()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == maxAt
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling any subset of events fires exactly the complement.
func TestPropertyCancelComplement(t *testing.T) {
	prop := func(delays []uint8, mask []bool) bool {
		s := NewScheduler()
		firedCount := 0
		events := make([]Event, len(delays))
		for i, d := range delays {
			events[i] = s.After(Duration(d), func() { firedCount++ })
		}
		cancelled := 0
		for i, ev := range events {
			if i < len(mask) && mask[i] {
				if s.Cancel(ev) {
					cancelled++
				}
			}
		}
		s.RunAll()
		return firedCount == len(delays)-cancelled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeInfIsInfinite(t *testing.T) {
	if !math.IsInf(float64(TimeInf), 1) {
		t.Fatal("TimeInf is not +Inf")
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		s.Step()
	}
}

func TestEventAccessors(t *testing.T) {
	s := NewScheduler()
	ev := s.After(5, func() {})
	if ev.At() != 5 {
		t.Fatalf("At() = %v", ev.At())
	}
	if !ev.Scheduled() {
		t.Fatal("pending event should report scheduled")
	}
	s.RunAll()
	if ev.Scheduled() {
		t.Fatal("fired event should not report scheduled")
	}
	var zero Event
	if zero.Scheduled() {
		t.Fatal("zero event should not report scheduled")
	}
}

// TestEventHandleStaleAfterReuse guards the free-list pool: a handle to a
// fired event must stay inert even after the scheduler reuses the event's
// storage for a new callback.
func TestEventHandleStaleAfterReuse(t *testing.T) {
	s := NewScheduler()
	stale := s.After(1, func() {})
	s.RunAll() // fires and recycles the event storage
	fired := false
	fresh := s.After(1, func() { fired = true }) // reuses the freed storage
	if stale.Scheduled() {
		t.Fatal("stale handle reports scheduled after storage reuse")
	}
	if s.Cancel(stale) {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if !fresh.Scheduled() {
		t.Fatal("fresh event lost")
	}
	s.RunAll()
	if !fired {
		t.Fatal("fresh event never fired (stale cancel hit it)")
	}
}

// TestSchedulerReusesEventStorage asserts the pool actually recycles:
// steady-state schedule/fire cycles must not grow allocations.
func TestSchedulerReusesEventStorage(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the pool.
	s.After(1, fn)
	s.Step()
	allocs := testing.AllocsPerRun(100, func() {
		s.After(1, fn)
		s.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects per cycle, want 0", allocs)
	}
}

func TestSchedulerRunResumable(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, d := range []Duration{1, 5, 9} {
		d := d
		s.After(d, func() { fired = append(fired, Time(d)) })
	}
	s.Run(4)
	if len(fired) != 1 {
		t.Fatalf("after Run(4): fired %v", fired)
	}
	s.Run(20)
	if len(fired) != 3 {
		t.Fatalf("after Run(20): fired %v", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("Now() = %v", s.Now())
	}
}

func TestSchedulerAtExactNow(t *testing.T) {
	s := NewScheduler()
	s.After(10, func() {})
	s.RunAll()
	fired := false
	if _, err := s.At(10, func() { fired = true }); err != nil {
		t.Fatalf("At(now) rejected: %v", err)
	}
	s.RunAll()
	if !fired {
		t.Fatal("At(now) event never fired")
	}
}

// TestEventSize pins the event storage to the runtime's 32 B size class:
// a large field keeps one pending beacon per sensor in the queue.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("event is %d B, want 32", got)
	}
}
