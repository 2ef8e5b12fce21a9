package radio_test

import (
	"reflect"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
	"roborepair/internal/wire"
)

// countingCodec is wire.FrameCodec with call counters.
type countingCodec struct {
	wire.FrameCodec
	encodes, decodes int
}

func (c *countingCodec) AppendEncode(dst []byte, f radio.Frame) ([]byte, error) {
	c.encodes++
	return c.FrameCodec.AppendEncode(dst, f)
}

func (c *countingCodec) Decode(b []byte, sent radio.Frame) (radio.Frame, error) {
	c.decodes++
	return c.FrameCodec.Decode(b, sent)
}

// delivery is one HandleFrame call, in medium order.
type delivery struct {
	to radio.NodeID
	f  radio.Frame
}

type logStation struct {
	id  radio.NodeID
	pos geom.Point
	log *[]delivery
}

func (s *logStation) RadioID() radio.NodeID     { return s.id }
func (s *logStation) RadioPos() geom.Point      { return s.pos }
func (s *logStation) RadioRange() float64       { return 63 }
func (s *logStation) RadioActive() bool         { return true }
func (s *logStation) HandleFrame(f radio.Frame) { *s.log = append(*s.log, delivery{s.id, f}) }

// scriptedCorrupter hands the k-th reception (0-based) a fixed outcome:
// reception 1 a valid encoding of another frame (a mutated copy),
// reception 3 the sender's own buffer flagged as corrupted (a replay of
// the transmission being received), reception 5 a duplicate; every other
// reception the sender's buffer untouched. It records what it returned.
type scriptedCorrupter struct {
	other []byte
	calls []scriptedCall
}

type scriptedCall struct {
	out []byte
	dup bool
}

func (c *scriptedCorrupter) Corrupt(b []byte) ([]byte, bool, bool) {
	out, corrupted, dup := b, false, false
	switch len(c.calls) {
	case 1:
		out, corrupted = c.other, true
	case 3:
		corrupted = true
	case 5:
		dup = true
	}
	c.calls = append(c.calls, scriptedCall{out: out, dup: dup})
	return out, corrupted, dup
}

// halfRand draws every backoff at half the window.
type halfRand struct{}

func (halfRand) Float64() float64 { return 0.5 }

// TestChannelDecodesEachBufferOnce broadcasts one frame to ten receivers
// through a counting FrameCodec, on the ideal and the contended path. The
// sender's buffer is decoded once however many receptions hear it
// unchanged; a buffer the corrupter substitutes is decoded on its own,
// and every receiver gets exactly Decode(the bytes it received).
func TestChannelDecodesEachBufferOnce(t *testing.T) {
	sent := radio.Frame{Src: 1, Dst: radio.IDBroadcast, Category: metrics.CatLocUpdate,
		Payload: wire.RobotUpdate{Robot: 1, Loc: geom.Pt(5, 5), Seq: 9, Load: 1}}
	// The copy has the sender's length but other bytes, so only an
	// identity test on the buffer tells the two apart.
	other, err := wire.FrameCodec{}.Encode(radio.Frame{Src: 1, Dst: radio.IDBroadcast, Category: metrics.CatLocUpdate,
		Payload: wire.RobotUpdate{Robot: 1, Loc: geom.Pt(5, 5), Seq: 10, Load: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const receivers = 10
	for _, contended := range []bool{false, true} {
		for _, corrupt := range []bool{false, true} {
			codec := &countingCodec{}
			cfg := radio.Config{CellSize: 63, Channel: codec}
			if contended {
				cfg.Contention = radio.ContentionConfig{Airtime: 0.001, MaxBackoff: 0.01, Rand: halfRand{}}
			}
			var sc *scriptedCorrupter
			if corrupt {
				sc = &scriptedCorrupter{other: other}
				cfg.Corrupter = sc
			}
			sched := sim.NewScheduler()
			m, err := radio.NewMedium(sched, metrics.NewRegistry(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var log []delivery
			for i := 0; i <= receivers; i++ {
				m.Attach(&logStation{id: radio.NodeID(i + 1), pos: geom.Pt(float64(i*5), 0), log: &log})
			}
			m.Send(sent)
			sched.RunAll()

			name := map[bool]string{false: "ideal", true: "contended"}[contended]
			if codec.encodes != 1 {
				t.Errorf("%s corrupt=%v: %d Encodes, want 1", name, corrupt, codec.encodes)
			}
			if !corrupt {
				if codec.decodes != 1 {
					t.Errorf("%s: %d Decodes for %d clean receptions, want 1", name, codec.decodes, receivers)
				}
				if len(log) != receivers {
					t.Fatalf("%s: %d deliveries, want %d", name, len(log), receivers)
				}
				for _, d := range log {
					if !reflect.DeepEqual(d.f, sent) {
						t.Errorf("%s: n%d got %+v, want %+v", name, d.to, d.f, sent)
					}
				}
				continue
			}
			// The mutated copy is the only buffer besides the sender's.
			if codec.decodes != 2 {
				t.Errorf("%s corrupted: %d Decodes, want 2 (one shared, one for the copy)", name, codec.decodes)
			}
			if len(sc.calls) != receivers {
				t.Fatalf("%s corrupted: %d Corrupt calls, want one per reception (%d)", name, len(sc.calls), receivers)
			}
			var want []radio.Frame
			for _, c := range sc.calls {
				g, err := wire.FrameCodec{}.Decode(c.out, radio.Frame{})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, g)
				if c.dup {
					want = append(want, g)
				}
			}
			if len(log) != len(want) {
				t.Fatalf("%s corrupted: %d deliveries, want %d", name, len(log), len(want))
			}
			for i, d := range log {
				if !reflect.DeepEqual(d.f, want[i]) {
					t.Errorf("%s corrupted: delivery %d to n%d got %+v, want %+v", name, i, d.to, d.f, want[i])
				}
			}
		}
	}
}
