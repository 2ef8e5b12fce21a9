package radio_test

import (
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// sinkStation is a station whose receive path does nothing, so the
// benchmark measures the medium alone; a mobile one stands in for a robot.
type sinkStation struct {
	id     radio.NodeID
	pos    geom.Point
	rng    float64
	mobile bool
}

func (s *sinkStation) RadioID() radio.NodeID   { return s.id }
func (s *sinkStation) RadioPos() geom.Point    { return s.pos }
func (s *sinkStation) RadioRange() float64     { return s.rng }
func (s *sinkStation) RadioActive() bool       { return true }
func (s *sinkStation) RadioMobile() bool       { return s.mobile }
func (s *sinkStation) HandleFrame(radio.Frame) {}

// contendedCodec builds BenchmarkContendedSend's medium: a contended
// FrameCodec medium at the paper's sensor density (50 sensors per
// 200 m × 200 m) with one 250 m mobile station, and the op's two frames —
// the mobile station's unicast and a 63 m static sensor's broadcast.
func contendedCodec(tb testing.TB) (m *radio.Medium, sched *sim.Scheduler, unicast, broadcast radio.Frame) {
	sched = sim.NewScheduler()
	m, err := radio.NewMedium(sched, metrics.NewRegistry(), radio.Config{
		CellSize:   63,
		Channel:    wire.FrameCodec{},
		Contention: radio.ContentionConfig{Airtime: 128 * 8 / 11e6, MaxBackoff: 0.1, Rand: rng.New(1)},
	})
	if err != nil {
		tb.Fatal(err)
	}
	const side = 200.0
	for i := 0; i < 50; i++ {
		x := float64(i%7) * (side / 7)
		y := float64(i/7) * (side / 7)
		m.Attach(&sinkStation{id: radio.NodeID(i + 1), pos: geom.Pt(x, y), rng: 63})
	}
	robot := &sinkStation{id: 100, pos: geom.Pt(side/2, side/2), rng: 250, mobile: true}
	m.Attach(robot)
	// The broadcasting sensor (n25, 20 m from the robot) and the robot
	// hear each other, so carrier sense keeps the two frames apart and
	// every op delivers both: the op's allocations do not depend on the
	// backoff draws.
	unicast = radio.Frame{Src: robot.id, Dst: 1, Category: metrics.CatLocUpdate,
		Payload: wire.RobotUpdate{Robot: robot.id, Loc: robot.pos, Seq: 1, Load: 1}}
	broadcast = radio.Frame{Src: 25, Dst: radio.IDBroadcast, Category: metrics.CatBeacon,
		Payload: wire.Beacon{From: 25, Loc: geom.Pt(3*side/7, 3*side/7)}}
	return m, sched, unicast, broadcast
}

// BenchmarkContendedSend measures the contended send path through the
// hostile channel's codec: per op, a 250 m mobile station sends one
// unicast and a 63 m static sensor one broadcast, and the scheduler runs
// both through backoff, carrier sense, air-log marking and delivery. Its
// allocs/op is the two shared decodes: transmission records and their
// encode buffers come from the medium's free list, and nothing is paid
// per audible station or per attempt.
func BenchmarkContendedSend(b *testing.B) {
	m, sched, unicast, broadcast := contendedCodec(b)
	reg := m.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(unicast)
		m.Send(broadcast)
		sched.RunAll()
	}
	b.StopTimer()
	if reg.Tx(metrics.CatBeacon) != uint64(b.N) || reg.Tx(radio.CatCollision) != 0 {
		b.Fatalf("%d broadcasts counted, want %d; %d collisions", reg.Tx(metrics.CatBeacon), b.N, reg.Tx(radio.CatCollision))
	}
}

// TestWarmContendedSendAllocatesOnlyDecodes runs BenchmarkContendedSend's
// op on a warmed medium and requires it to allocate exactly what decoding
// its two frames allocates — nothing: the records, their encode buffers
// and the scheduler's events are recycled, and a clean reception's decode
// hands over the sender's own payload values.
func TestWarmContendedSendAllocatesOnlyDecodes(t *testing.T) {
	m, sched, unicast, broadcast := contendedCodec(t)
	op := func() {
		m.Send(unicast)
		m.Send(broadcast)
		sched.RunAll()
	}
	for i := 0; i < 10; i++ {
		op()
	}
	var codec wire.FrameCodec
	bu, err := codec.Encode(unicast)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := codec.Encode(broadcast)
	if err != nil {
		t.Fatal(err)
	}
	decodes := testing.AllocsPerRun(100, func() {
		codec.Decode(bu, unicast)
		codec.Decode(bb, broadcast)
	})
	if decodes != 0 {
		t.Fatalf("decoding the two frames against what was sent: %v allocations, want 0", decodes)
	}
	if got := testing.AllocsPerRun(100, op); got != 0 {
		t.Fatalf("warm contended unicast + broadcast: %v allocations, want 0", got)
	}
}
