package wire

import (
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

// benchStation is a Station whose receive path does no bookkeeping, so
// the benchmark measures the medium and the codec alone.
type benchStation struct {
	id  radio.NodeID
	pos geom.Point
}

func (s *benchStation) RadioID() radio.NodeID   { return s.id }
func (s *benchStation) RadioPos() geom.Point    { return s.pos }
func (s *benchStation) RadioRange() float64     { return 63 }
func (s *benchStation) RadioActive() bool       { return true }
func (s *benchStation) HandleFrame(radio.Frame) {}

// codecMedium is a FrameCodec medium with no Corrupter holding n static
// stations on a 7-wide grid of the given pitch, IDs 1..n.
func codecMedium(tb testing.TB, n int, pitch float64) *radio.Medium {
	m, err := radio.NewMedium(sim.NewScheduler(), metrics.NewRegistry(), radio.Config{CellSize: 63, Channel: FrameCodec{}})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m.Attach(&benchStation{id: radio.NodeID(i + 1), pos: geom.Pt(float64(i%7)*pitch, float64(i/7)*pitch)})
	}
	return m
}

// floodFrame is a relayed robot location update: a FloodMsg envelope
// nesting a RobotUpdate, the commonest multi-receiver frame of a run. Its
// sender, n25, sits mid-grid.
var floodFrame = radio.Frame{Src: 25, Dst: radio.IDBroadcast, Category: metrics.CatLocUpdate,
	Payload: netstack.FloodMsg{Origin: 9001, Seq: 17, Category: metrics.CatLocUpdate, Hops: 3, TTL: 32,
		Payload: RobotUpdate{Robot: 9001, Loc: geom.Pt(50, 50), Seq: 17, Load: 2}}}

// BenchmarkFrameBroadcast measures one broadcast through the hostile
// channel's codec with no Corrupter, at the paper's sensor density (50
// sensors per 200 m × 200 m, 63 m range ⇒ 12 receivers): one Encode,
// then one Decode shared by every reception. It allocates nothing: the
// transmission record and its encode buffer come from the medium's free
// list, the decode hands over the sender's boxed FloodMsg (and the
// RobotUpdate it nests) instead of boxing copies, and nothing is paid per
// receiver.
func BenchmarkFrameBroadcast(b *testing.B) {
	m := codecMedium(b, 50, 200.0/7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(floodFrame)
	}
}

// TestFrameBroadcastAllocsFlat holds the codec path's allocations per
// broadcast at zero whatever the receiver count: 6 receivers and 49 cost
// nothing.
func TestFrameBroadcastAllocsFlat(t *testing.T) {
	sparse := codecMedium(t, 25, 30)
	dense := codecMedium(t, 50, 3)
	few := testing.AllocsPerRun(100, func() { sparse.Send(floodFrame) })
	many := testing.AllocsPerRun(100, func() { dense.Send(floodFrame) })
	if few != 0 || many != 0 {
		t.Fatalf("allocs per broadcast: %v with 6 receivers, %v with 49, want 0", few, many)
	}
}
