package chaos

import (
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

// FrameCorrupter implements radio.Corrupter from the plan's corruption
// windows: inside a window each reception's bytes are mutated with the
// window's probability, drawing every decision from the corrupter's own
// seeded stream. It also keeps a capture ring of the buffers handed to
// its last 8 Corrupt calls for the replay mode. Corrupt runs once per
// reception, not per transmission, so a broadcast heard by ~10 stations
// fills most of the ring with its own buffer: a replay almost always
// re-delivers the transmission being received or the one just before it.
// Buffers handed to Corrupt are never modified in place. The ring keeps
// its own copy of each one, so the medium may reuse a transmission's
// buffer once it is delivered, and a mutation is written into one scratch
// buffer that the next mutation overwrites (the medium decodes what
// Corrupt returns at once).
type FrameCorrupter struct {
	entries []Corruption
	now     func() sim.Time
	rand    *rng.Source

	ring    [8][]byte
	ringN   int // occupied slots
	ringPos int // next slot to overwrite
	// mutated is the scratch buffer bit flips and garbage are written to.
	mutated []byte
}

// NewFrameCorrupter builds the corrupter for the plan's corruption
// windows driven by the clock now, drawing from src. It returns nil when
// there are no windows; callers should then leave radio.Config.Corrupter
// unset.
func NewFrameCorrupter(entries []Corruption, now func() sim.Time, src *rng.Source) *FrameCorrupter {
	if len(entries) == 0 {
		return nil
	}
	return &FrameCorrupter{entries: entries, now: now, rand: src}
}

// active returns the corruption entry in force, resolving overlapping
// windows to the highest probability so a plan is order-independent.
func (c *FrameCorrupter) active(now float64) (Corruption, bool) {
	var best Corruption
	ok := false
	for _, e := range c.entries {
		if now >= e.From && now < e.To && (!ok || e.P > best.P) {
			best, ok = e, true
		}
	}
	return best, ok
}

// Corrupt implements radio.Corrupter.
func (c *FrameCorrupter) Corrupt(b []byte) (out []byte, corrupted, dup bool) {
	// Capture before deciding so the replay ring has history by the time
	// a window opens.
	c.ring[c.ringPos] = append(c.ring[c.ringPos][:0], b...)
	c.ringPos = (c.ringPos + 1) % len(c.ring)
	if c.ringN < len(c.ring) {
		c.ringN++
	}
	e, ok := c.active(float64(c.now()))
	if !ok || c.rand.Float64() >= e.P {
		return b, false, false
	}
	mode := e.Mode
	if mode == "" || mode == "mix" {
		mode = [...]string{"bitflip", "truncate", "garbage", "duplicate", "replay"}[c.rand.Intn(5)]
	}
	switch mode {
	case "truncate":
		return b[:c.rand.Intn(len(b))], true, false
	case "garbage":
		g := append(c.mutated[:0], b...)
		for n := 1 + c.rand.Intn(8); n > 0; n-- {
			g = append(g, byte(c.rand.Intn(256)))
		}
		c.mutated = g
		return g, true, false
	case "duplicate":
		return b, false, true
	case "replay":
		// The ring always holds at least the current frame; replaying it
		// is indistinguishable from duplication, which is fine.
		return c.ring[c.rand.Intn(c.ringN)], true, false
	default: // bitflip
		g := append(c.mutated[:0], b...)
		for n := 1 + c.rand.Intn(3); n > 0; n-- {
			bit := c.rand.Intn(len(g) * 8)
			g[bit/8] ^= 1 << (bit % 8)
		}
		c.mutated = g
		return g, true, false
	}
}
