package sim

import (
	"reflect"
	"testing"
)

// xorshift64 is a tiny in-test PRNG so workloads are identical across Go
// versions (math/rand's stream is not covered by the compatibility
// promise).
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// kernelTrace is the observable outcome of a workload: which callbacks
// fired, in what order, at what clock readings, and the checkpoint state
// after every bounded run.
type kernelTrace struct {
	labels []int
	times  []Time
	states []KernelState
	fired  uint64
	now    Time
}

func (tr *kernelTrace) equal(o *kernelTrace) bool {
	if len(tr.labels) != len(o.labels) || tr.fired != o.fired || tr.now != o.now {
		return false
	}
	for i := range tr.labels {
		if tr.labels[i] != o.labels[i] || tr.times[i] != o.times[i] {
			return false
		}
	}
	return reflect.DeepEqual(tr.states, o.states)
}

// runKernelWorkload drives one scheduler through a PRNG-derived mix of
// schedules (including same-instant bursts), cancels, steps, bounded runs,
// and ticker reschedule-on-fire, then drains it. A standing population of
// events spread over the first 5000 s, scheduled up front, keeps the
// ladder's rungs occupied while the mix pushes into them. The PRNG draw
// sequence is independent of kernel behavior, so two kernels see the same
// operations and any trace divergence is an ordering bug.
func runKernelWorkload(s *Scheduler, seed uint64, standing, nops int) *kernelTrace {
	rng := xorshift64(seed | 1)
	tr := &kernelTrace{}
	var handles []Event
	label := 0
	schedule := func(d Duration) {
		l := label
		label++
		handles = append(handles, s.After(d, func() {
			tr.labels = append(tr.labels, l)
			tr.times = append(tr.times, s.Now())
		}))
	}
	for i := 0; i < standing; i++ {
		schedule(Duration(rng.next()%40000) / 8)
	}
	for op := 0; op < nops; op++ {
		switch r := rng.next() % 100; {
		case r < 35:
			schedule(Duration(rng.next()%4000) / 8)
		case r < 45:
			d := Duration(rng.next() % 200)
			for i := 0; i < 5; i++ {
				schedule(d) // same-instant burst: FIFO tie-break territory
			}
		case r < 50:
			schedule(0) // fires at the current instant
		case r < 65:
			if len(handles) > 0 {
				s.Cancel(handles[rng.next()%uint64(len(handles))])
			}
		case r < 78:
			s.Step()
		case r < 90:
			s.Run(s.Now() + Duration(rng.next()%250))
			tr.states = append(tr.states, s.SnapshotState())
		default:
			l := label
			label++
			remaining := int(rng.next()%4) + 1
			var tk *Ticker
			tk, _ = s.NewTicker(Duration(rng.next()%10), 1+Duration(rng.next()%20), func() {
				tr.labels = append(tr.labels, l)
				tr.times = append(tr.times, s.Now())
				remaining--
				if remaining == 0 {
					tk.Stop()
				}
			})
		}
	}
	s.RunAll()
	tr.fired = s.Fired()
	tr.now = s.Now()
	return tr
}

// TestKernelDifferential locks the ladder to the reference heap: over
// randomized workloads both kernels must fire the exact same callbacks at
// the exact same clock readings in the exact same order, and report the
// same checkpoint state. Every fifth seed also carries a standing
// population deep enough to spawn rungs.
func TestKernelDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		standing := 0
		if seed%5 == 0 {
			standing = 2000
		}
		heapTr := runKernelWorkload(newHeapScheduler(), seed, standing, 400)
		ladTr := runKernelWorkload(NewScheduler(), seed, standing, 400)
		if !heapTr.equal(ladTr) {
			i := 0
			for i < len(heapTr.labels) && i < len(ladTr.labels) &&
				heapTr.labels[i] == ladTr.labels[i] && heapTr.times[i] == ladTr.times[i] {
				i++
			}
			t.Fatalf("seed %d: kernels diverge at fire #%d (heap fired %d, ladder %d; heap now %v, ladder %v)",
				seed, i, heapTr.fired, ladTr.fired, heapTr.now, ladTr.now)
		}
	}
}

// applyKernelOps drives a scheduler with an op stream decoded from raw
// bytes — the fuzz-facing twin of runKernelWorkload.
func applyKernelOps(s *Scheduler, data []byte) *kernelTrace {
	tr := &kernelTrace{}
	var handles []Event
	label := 0
	schedule := func(d Duration) {
		l := label
		label++
		handles = append(handles, s.After(d, func() {
			tr.labels = append(tr.labels, l)
			tr.times = append(tr.times, s.Now())
		}))
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 8 {
		case 0, 1:
			schedule(Duration(arg) / 4)
		case 2:
			for j := 0; j < 3; j++ {
				schedule(Duration(arg))
			}
		case 3:
			schedule(0)
		case 4:
			if len(handles) > 0 {
				s.Cancel(handles[int(arg)%len(handles)])
			}
		case 5:
			s.Step()
		case 6:
			s.Run(s.Now() + Duration(arg))
			tr.states = append(tr.states, s.SnapshotState())
		case 7:
			l := label
			label++
			remaining := int(arg%3) + 1
			var tk *Ticker
			tk, _ = s.NewTicker(Duration(arg%8), 1+Duration(arg%16), func() {
				tr.labels = append(tr.labels, l)
				tr.times = append(tr.times, s.Now())
				remaining--
				if remaining == 0 {
					tk.Stop()
				}
			})
		}
	}
	s.RunAll()
	tr.fired = s.Fired()
	tr.now = s.Now()
	return tr
}

// FuzzKernelOps feeds arbitrary op streams to the ladder and the reference
// heap and requires identical traces. `go test -fuzz=FuzzKernelOps ./internal/sim` explores;
// the corpus below seeds the interesting shapes.
func FuzzKernelOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 5, 0, 4, 0, 2, 7, 6, 50})
	f.Add([]byte{7, 9, 2, 0, 3, 0, 5, 0, 5, 0, 6, 255})
	f.Add([]byte{0, 255, 1, 1, 4, 1, 4, 0, 6, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		heapTr := applyKernelOps(newHeapScheduler(), data)
		ladTr := applyKernelOps(NewScheduler(), data)
		if !heapTr.equal(ladTr) {
			t.Fatalf("kernels diverge: heap fired %d (now %v), ladder fired %d (now %v)",
				heapTr.fired, heapTr.now, ladTr.fired, ladTr.now)
		}
	})
}

// TestLadderDeepRungs forces the rung-spawning path: a dense burst of
// events inside a narrow window behind a huge same-window population makes
// the first transfer bucket oversized repeatedly.
func TestLadderDeepRungs(t *testing.T) {
	s := NewScheduler()
	rng := xorshift64(7)
	const n = 20000
	var fired []Time
	for i := 0; i < n; i++ {
		at := Time(rng.next()%1000) / 64
		s.After(at, func() { fired = append(fired, s.Now()) })
	}
	s.RunAll()
	if len(fired) != n {
		t.Fatalf("fired %d of %d", len(fired), n)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("clock regressed at fire %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}

// TestLadderCancelHeavy exercises lazy cancellation across every tier:
// cancel a large random subset before and between drains.
func TestLadderCancelHeavy(t *testing.T) {
	s := NewScheduler()
	rng := xorshift64(11)
	const n = 5000
	events := make([]Event, n)
	firedCount := 0
	for i := range events {
		events[i] = s.After(Duration(rng.next()%500), func() { firedCount++ })
	}
	cancelled := 0
	for i := range events {
		if rng.next()%3 == 0 {
			if s.Cancel(events[i]) {
				cancelled++
			}
		}
	}
	s.Run(250)
	for i := range events {
		if rng.next()%7 == 0 {
			if s.Cancel(events[i]) {
				cancelled++
			}
		}
	}
	s.RunAll()
	if firedCount != n-cancelled {
		t.Fatalf("fired %d, want %d (cancelled %d)", firedCount, n-cancelled, cancelled)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after RunAll", s.Pending())
	}
}

// BenchmarkSchedulerHotLoop measures the steady-state schedule-one/fire-one
// cycle against a deep standing population — the regime a large field puts
// the kernel in (every sensor holds a pending beacon timer).
func BenchmarkSchedulerHotLoop(b *testing.B) {
	s := NewScheduler()
	rng := xorshift64(12345)
	fn := func() {}
	const standing = 1 << 16
	for i := 0; i < standing; i++ {
		s.After(Duration(rng.next()%100000)/100, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Duration(rng.next()%10000)/100, fn)
		s.Step()
	}
}
