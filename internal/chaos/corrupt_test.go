package chaos

import (
	"bytes"
	"testing"

	"roborepair/internal/checkpoint"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

// TestRingOwnsCapturedBytes feeds the corrupter one buffer that the
// caller rewrites after every Corrupt call, the way the medium reuses a
// transmission's encode buffer once it is delivered. The replay ring and
// its checkpoint section must keep the bytes as they were captured, and
// every replay must return a captured frame's original bytes.
func TestRingOwnsCapturedBytes(t *testing.T) {
	now := sim.Time(0)
	const seed = 7
	c := NewFrameCorrupter([]Corruption{{From: 100, To: 200, P: 1, Mode: "replay"}},
		func() sim.Time { return now }, rng.New(seed))
	// twin replays the corrupter's draws: one Float64 against P, then the
	// ring slot.
	twin := rng.New(seed)

	buf := make([]byte, 0, 16)
	var captured [][]byte // every frame fed in, oldest first
	feed := func(i int) []byte {
		buf = append(buf[:0], byte(i), byte(i>>8), 0xA5, byte(i*7))
		captured = append(captured, bytes.Clone(buf))
		out, _, _ := c.Corrupt(buf)
		for j := range buf {
			buf[j] = 0xFF // the medium reuses the buffer
		}
		return out
	}
	wantState := func() []byte {
		last := captured[max(0, len(captured)-8):]
		b := checkpoint.AppendU32(nil, uint32(len(last)))
		for _, f := range last {
			b = checkpoint.AppendBytes(b, f)
		}
		return b
	}

	// Outside the window: capture only.
	for i := 0; i < 11; i++ {
		feed(i)
		if got, want := c.AppendState(nil), wantState(); !bytes.Equal(got, want) {
			t.Fatalf("after capture %d: ring state %x, want %x", i, got, want)
		}
	}
	// Inside the window every reception is a replay of a ring slot.
	now = 150
	for i := 11; i < 60; i++ {
		got := feed(i)
		twin.Float64()
		// Capture k sits in ring slot k mod 8, so slot s holds the latest
		// capture congruent to s.
		last := len(captured) - 1
		s := twin.Intn(8)
		want := captured[last-(last-s)%8]
		if !bytes.Equal(got, want) {
			t.Fatalf("replay %d returned %x, want the captured %x", i, got, want)
		}
		if gotState, wantSt := c.AppendState(nil), wantState(); !bytes.Equal(gotState, wantSt) {
			t.Fatalf("after replay %d: ring state %x, want %x", i, gotState, wantSt)
		}
	}
}
