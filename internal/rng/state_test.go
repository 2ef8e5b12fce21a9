package rng

import "testing"

// drawMix consumes a deterministic mix of every draw kind the simulator
// uses and returns a fingerprint sequence. Exercising all kinds matters:
// the draw counter must be exact whatever distribution consumed the steps
// (Intn and Normal take a variable number of generator steps per call).
func drawMix(s *Source, n int) []float64 {
	out := make([]float64, 0, n*6)
	for i := 0; i < n; i++ {
		out = append(out, s.Float64())
		out = append(out, s.Uniform(-5, 11))
		out = append(out, float64(s.Intn(1000)))
		out = append(out, s.Exponential(250))
		out = append(out, s.Normal(3, 7))
		out = append(out, s.Jitter(9))
	}
	return out
}

// restore rebuilds a stream from a captured state by reseeding and
// fast-forwarding the counted number of steps; the round-trip tests use
// it to show the state is the stream's whole position.
func restore(st StreamState) *Source {
	s := New(st.Seed)
	s.name = st.Name
	for i := uint64(0); i < st.Draws; i++ {
		s.c.src.Uint64()
	}
	s.c.draws = st.Draws
	return s
}

func TestStateRoundTrip(t *testing.T) {
	for _, warmup := range []int{0, 1, 17, 400} {
		s := Split(42, "round-trip")
		drawMix(s, warmup)
		st := s.State()
		if st.Name != "round-trip" {
			t.Fatalf("state name = %q, want round-trip", st.Name)
		}

		// State out = state in: capturing is non-perturbing and restoring
		// reproduces the position exactly.
		r := restore(st)
		if got := r.State(); got != st {
			t.Fatalf("warmup %d: restored state = %+v, want %+v", warmup, got, st)
		}

		// The next 1000 draws are identical.
		want := drawMix(s, 1000/6+1)
		got := drawMix(r, 1000/6+1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("warmup %d: draw %d: restored %v, original %v", warmup, i, got[i], want[i])
			}
		}
	}
}

func TestStateCaptureDoesNotPerturb(t *testing.T) {
	a, b := Split(7, "x"), Split(7, "x")
	drawMix(a, 3)
	drawMix(b, 3)
	_ = a.State() // capture on a only
	wa, wb := drawMix(a, 50), drawMix(b, 50)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("draw %d diverged after State(): %v vs %v", i, wa[i], wb[i])
		}
	}
}

func TestDrawsCountsEveryKind(t *testing.T) {
	s := New(1)
	if s.Draws() != 0 {
		t.Fatalf("fresh stream draws = %d, want 0", s.Draws())
	}
	s.Float64()
	if s.Draws() != 1 {
		t.Fatalf("after Float64 draws = %d, want 1", s.Draws())
	}
	// Rejection-sampled draws take a variable number of steps, which must
	// all be counted: Intn(2^30+1) rejects about half of its 31-bit draws.
	before := s.Draws()
	for i := 0; i < 64; i++ {
		s.Intn(rejecting)
	}
	if s.Draws() <= before+64 {
		t.Fatalf("64 rejection-sampled Intn calls counted %d draws, want more than 64", s.Draws()-before)
	}
}

// rejecting is an Intn bound just above a power of two: math/rand rejects
// about half of the draws it makes for it.
const rejecting = 1<<30 + 1

// TestShuffleRoundTrip restores a stream captured after a run of
// variable-step draws — rejection-sampled Intn calls, the draws a shuffle
// makes — and requires the restored stream to continue identically.
func TestShuffleRoundTrip(t *testing.T) {
	s := Split(3, "shuffle")
	for i := 0; i < 100; i++ {
		s.Intn(rejecting)
	}
	r := restore(s.State())
	for i := 0; i < 64; i++ {
		if a, b := s.Intn(rejecting), r.Intn(rejecting); a != b {
			t.Fatalf("draw %d after the round trip diverged: %d vs %d", i, a, b)
		}
	}
}
