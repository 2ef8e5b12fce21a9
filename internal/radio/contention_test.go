package radio

import (
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/rng"
)

// zeroBackoff forces every transmission to start immediately, maximizing
// collisions.
type zeroBackoff struct{}

func (zeroBackoff) Float64() float64 { return 0 }

func contendedMedium(backoff interface{ Float64() float64 }) (*Medium, *metrics.Registry, *simScheduler) {
	m, reg, sched := newTestMedium(Config{
		Contention: ContentionConfig{
			Airtime:    0.001,
			MaxBackoff: 0.05,
			Rand:       backoff,
		},
	})
	return m, reg, &simScheduler{sched}
}

// simScheduler is a tiny wrapper so the helper above can return three
// values without exporting the sim package in these tests.
type simScheduler struct{ s interface{ RunAll() uint64 } }

func (w *simScheduler) RunAll() { w.s.RunAll() }

func TestContentionDelaysDelivery(t *testing.T) {
	m, _, sched := contendedMedium(zeroBackoff{})
	a := &fakeStation{id: 1, pos: geom.Pt(0, 0), rng: 63}
	b := &fakeStation{id: 2, pos: geom.Pt(10, 0), rng: 63}
	m.Attach(a)
	m.Attach(b)
	m.Send(Frame{Src: 1, Dst: 2, Category: "x"})
	if b.count() != 0 {
		t.Fatal("delivery before airtime elapsed")
	}
	sched.RunAll()
	if b.count() != 1 {
		t.Fatal("uncontended frame not delivered")
	}
}

func TestHiddenTerminalsCollide(t *testing.T) {
	m, reg, sched := contendedMedium(zeroBackoff{})
	// The classic hidden-terminal setup: two senders out of range of each
	// other (so carrier sensing cannot help) transmit simultaneously at a
	// common receiver in the middle: both frames are lost there.
	s1 := &fakeStation{id: 1, pos: geom.Pt(0, 0), rng: 63}
	s2 := &fakeStation{id: 2, pos: geom.Pt(100, 0), rng: 63}
	rx := &fakeStation{id: 3, pos: geom.Pt(50, 0), rng: 63}
	for _, s := range []*fakeStation{s1, s2, rx} {
		m.Attach(s)
	}
	m.Send(Frame{Src: 1, Dst: IDBroadcast, Category: "x"})
	m.Send(Frame{Src: 2, Dst: IDBroadcast, Category: "x"})
	sched.RunAll()
	if rx.count() != 0 {
		t.Fatalf("receiver decoded %d frames during a collision", rx.count())
	}
	if reg.Tx(CatCollision) == 0 {
		t.Fatal("collision not counted")
	}
	// Both transmissions are still counted as transmissions.
	if reg.Tx("x") != 2 {
		t.Fatalf("tx count = %d", reg.Tx("x"))
	}
}

func TestCarrierSensePreventsInRangeCollision(t *testing.T) {
	m, reg, sched := contendedMedium(zeroBackoff{})
	// Senders within range of each other: the second defers until the
	// first finishes, so the common receiver decodes both.
	s1 := &fakeStation{id: 1, pos: geom.Pt(0, 0), rng: 63}
	s2 := &fakeStation{id: 2, pos: geom.Pt(40, 0), rng: 63}
	rx := &fakeStation{id: 3, pos: geom.Pt(20, 0), rng: 63}
	for _, s := range []*fakeStation{s1, s2, rx} {
		m.Attach(s)
	}
	m.Send(Frame{Src: 1, Dst: IDBroadcast, Category: "x"})
	m.Send(Frame{Src: 2, Dst: IDBroadcast, Category: "x"})
	sched.RunAll()
	if rx.count() != 2 {
		t.Fatalf("receiver decoded %d/2 frames; CSMA deferral failed", rx.count())
	}
	if reg.Tx(CatCollision) != 0 {
		t.Fatalf("collisions despite carrier sensing: %d", reg.Tx(CatCollision))
	}
}

func TestHiddenStationsDoNotCollide(t *testing.T) {
	m, _, sched := contendedMedium(zeroBackoff{})
	// Senders far apart, each with its own receiver: no overlap at either
	// receiver, both deliveries succeed even though they are simultaneous.
	s1 := &fakeStation{id: 1, pos: geom.Pt(0, 0), rng: 63}
	r1 := &fakeStation{id: 2, pos: geom.Pt(20, 0), rng: 63}
	s2 := &fakeStation{id: 3, pos: geom.Pt(500, 0), rng: 63}
	r2 := &fakeStation{id: 4, pos: geom.Pt(520, 0), rng: 63}
	for _, s := range []*fakeStation{s1, r1, s2, r2} {
		m.Attach(s)
	}
	m.Send(Frame{Src: 1, Dst: 2, Category: "x"})
	m.Send(Frame{Src: 3, Dst: 4, Category: "x"})
	sched.RunAll()
	if r1.count() != 1 || r2.count() != 1 {
		t.Fatalf("spatially separated frames lost: %d, %d", r1.count(), r2.count())
	}
}

func TestBackoffSpreadsTransmissions(t *testing.T) {
	m, reg, sched := contendedMedium(rng.New(1))
	// Ten senders around one receiver; with random backoff over 50 ms and
	// 1 ms airtime, most frames should get through.
	rx := &fakeStation{id: 99, pos: geom.Pt(0, 0), rng: 63}
	m.Attach(rx)
	for i := 0; i < 10; i++ {
		m.Attach(&fakeStation{id: NodeID(i + 1), pos: geom.Pt(float64(i+1), 0), rng: 63})
	}
	for i := 0; i < 10; i++ {
		m.Send(Frame{Src: NodeID(i + 1), Dst: 99, Category: "x"})
	}
	sched.RunAll()
	if rx.count() < 7 {
		t.Fatalf("only %d/10 frames survived with backoff; collisions=%d",
			rx.count(), reg.Tx(CatCollision))
	}
}

func TestSequentialTransmissionsNeverCollide(t *testing.T) {
	m, reg, _ := newTestMedium(Config{
		Contention: ContentionConfig{Airtime: 0.001, MaxBackoff: 0, Rand: zeroBackoff{}},
	})
	a := &fakeStation{id: 1, pos: geom.Pt(0, 0), rng: 63}
	b := &fakeStation{id: 2, pos: geom.Pt(10, 0), rng: 63}
	m.Attach(a)
	m.Attach(b)
	for i := 0; i < 5; i++ {
		m.Send(Frame{Src: 1, Dst: 2, Category: "x"})
		m.Scheduler().RunAll() // let each frame finish before the next
	}
	if b.count() != 5 {
		t.Fatalf("sequential frames delivered %d/5", b.count())
	}
	if reg.Tx(CatCollision) != 0 {
		t.Fatalf("phantom collisions: %d", reg.Tx(CatCollision))
	}
}

func TestContentionConfigEnabled(t *testing.T) {
	if (ContentionConfig{}).Enabled() {
		t.Fatal("zero config should be disabled")
	}
	if !(ContentionConfig{Airtime: 0.001, Rand: zeroBackoff{}}).Enabled() {
		t.Fatal("configured model should be enabled")
	}
	if (ContentionConfig{Airtime: 0.001}).Enabled() {
		t.Fatal("model without Rand should be disabled")
	}
}

// westOutage silences every station west of x = 0.
type westOutage struct{}

func (westOutage) Silenced(p geom.Point) bool { return p.X < 0 }

// TestTransmissionFreeListBounded drains a burst of far more contended
// sends than the free list keeps — broadcasts, unicasts to a detached
// station and broadcasts from a silenced region, so every delivery return
// path runs — and requires the list to end at its cap with no parked
// record pinning a frame. A second burst the size of the cap must then
// run on recycled records alone, and the slots it pops must be cleared so
// the list's spare capacity keeps no record alive.
func TestTransmissionFreeListBounded(t *testing.T) {
	m, _, sched := newTestMedium(Config{
		Outage:     westOutage{},
		Contention: ContentionConfig{Airtime: 0.001, MaxBackoff: 0.05, Rand: rng.New(3)},
	})
	const n = 10 * txFreeCap
	for i := 0; i < n; i++ {
		// A 20 × 8 grid 100 m apart with 63 m range: nobody hears anybody,
		// so every send of a burst is in flight at once.
		m.Attach(&fakeStation{id: NodeID(i + 1), pos: geom.Pt(float64(i%20)*100-500, float64(i/20)*100), rng: 63})
	}
	send := func(k int) {
		for i := 0; i < k; i++ {
			f := Frame{Src: NodeID(i + 1), Dst: IDBroadcast, Category: "x", Payload: i}
			if i%3 == 1 {
				f.Dst = n + 50 // never attached
			}
			m.Send(f)
		}
	}
	send(n)
	sched.RunAll()
	if len(m.txFree) != txFreeCap {
		t.Fatalf("free list holds %d records after %d sends drained, want the cap %d", len(m.txFree), n, txFreeCap)
	}
	parked := map[*transmission]bool{}
	for _, tr := range m.txFree {
		if tr.f.Payload != nil || tr.enc.decoded || tr.step == nil {
			t.Fatalf("parked record not reset: %+v", tr)
		}
		parked[tr] = true
	}
	send(txFreeCap)
	if len(m.txFree) != 0 {
		t.Fatalf("free list holds %d records with the cap in flight, want 0", len(m.txFree))
	}
	for i, tr := range m.txFree[:cap(m.txFree)] {
		if tr != nil {
			t.Fatalf("popped free-list slot %d still holds a record", i)
		}
	}
	sched.RunAll()
	if len(m.txFree) != txFreeCap {
		t.Fatalf("free list holds %d records after a burst of %d, want %d", len(m.txFree), txFreeCap, txFreeCap)
	}
	for _, tr := range m.txFree {
		if !parked[tr] {
			t.Fatal("a burst within the cap made a new record instead of recycling one")
		}
	}
}
