package scenario

import (
	"slices"
	"testing"

	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/node"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

// TestSensorTablesSizedOnce runs the paper's 800-sensor field through
// boot and on into replacements, checking after every event that a
// sensor's neighbor table makes its slots once and never regrows them
// unless its static set outgrew them: through the end of boot
// (announcements, guardian selection and the first beacon round) every
// sensor's slot count stays what its first insertion made, and afterwards
// it changes only when a replacement attached in range has grown the set
// past it, and then to room for the whole set.
func TestSensorTablesSizedOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Robots = 16
	cfg.MeanLifetime = 4000 // replacements within a short run
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sensors []*node.Sensor // ID-ascending, replacements appended as they spawn
	var next radio.NodeID
	spawned := func() {
		for ; next < w.nextID; next++ {
			if s, ok := w.Sensors[next]; ok {
				sensors = append(sensors, s)
			}
		}
	}
	spawned()
	initial := len(sensors)
	// setSize counts the static stations in a sensor's range: every sensor
	// ever deployed stays attached, dead or alive.
	setSize := func(s *node.Sensor) int {
		n := 0
		for _, o := range sensors {
			if o != s && s.Pos().Dist2(o.Pos()) <= cfg.SensorRange*cfg.SensorRange {
				n++
			}
		}
		return n
	}
	var caps []int
	boot := sim.Time(settleDelay) + sim.Time(cfg.BeaconPeriod)
	regrown := 0
	for w.Sched.Now() <= 2500 && w.Sched.Step() {
		spawned()
		caps = append(caps, make([]int, len(sensors)-len(caps))...)
		for i, s := range sensors {
			c := s.Table().Cap()
			switch {
			case caps[i] == 0:
				caps[i] = c
			case c == caps[i]:
			case w.Sched.Now() <= boot:
				t.Fatalf("t=%v: sensor %d's table grew from %d to %d slots during boot (%d entries)",
					w.Sched.Now(), s.ID(), caps[i], c, s.Table().Len())
			case setSize(s) <= caps[i] || c < setSize(s):
				t.Fatalf("t=%v: sensor %d's table went from %d to %d slots; its static set has %d members",
					w.Sched.Now(), s.ID(), caps[i], c, setSize(s))
			default:
				caps[i] = c
				regrown++
			}
		}
	}
	sized := 0
	for _, c := range caps[:initial] {
		if c > 0 {
			sized++
		}
	}
	if sized < initial*9/10 {
		t.Fatalf("only %d of %d sensors inserted a static peer", sized, initial)
	}
	t.Logf("%d repairs regrew %d tables", w.repairs, regrown)
	if w.repairs == 0 || regrown == 0 {
		t.Fatalf("%d repairs regrew %d tables: the run must replace sensors near live ones", w.repairs, regrown)
	}
}

// TestTakeoverConfigReachesReplacements pins the shared-config contract:
// the world hands every sensor one Env, and a takeover election swaps in
// a fresh copy naming the elected manager instead of writing through the
// pointer. Replacements spawned after the takeover start with the elected
// manager; sensors spawned before it keep the Config they hold.
func TestTakeoverConfigReachesReplacements(t *testing.T) {
	plan, err := chaos.Parse("mgr@2000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Algorithm = core.Centralized
	cfg.SimTime = 8000
	cfg.Reliability.Enabled = true
	cfg.Faults = plan
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	original := w.sensorEnv
	configured := original.Reliability.Manager
	if configured != w.Manager.ID() {
		t.Fatalf("initial sensor config names manager %d, want %d", configured, w.Manager.ID())
	}
	var before, after []radio.NodeID // replacements by spawn side of the takeover
	for w.Sched.Now() <= sim.Time(cfg.SimTime) {
		next, took := w.nextID, w.takeovers
		if !w.Sched.Step() {
			break
		}
		if w.nextID == next {
			continue
		}
		if w.takeovers != took {
			t.Fatalf("t=%v: a spawn and a takeover in one event", w.Sched.Now())
		}
		for id := next; id < w.nextID; id++ {
			if took == 0 {
				before = append(before, id)
			} else {
				after = append(after, id)
			}
		}
	}
	if w.takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", w.takeovers)
	}
	if len(before) == 0 || len(after) == 0 {
		t.Fatalf("replacements before/after the takeover: %d/%d, want both", len(before), len(after))
	}
	elected := w.sensorEnv.Reliability.Manager
	if elected == configured || w.sensorEnv == original {
		t.Fatalf("takeover left the sensor config in place (manager %d)", elected)
	}
	if original.Reliability.Manager != configured {
		t.Fatalf("takeover wrote through the shared config: manager %d", original.Reliability.Manager)
	}
	for id, s := range w.Sensors {
		if !slices.Contains(after, id) && s.Config() != &original.Config {
			t.Errorf("sensor %d, spawned before the takeover, lost its config", id)
		}
	}
	for _, id := range after {
		s := w.Sensors[id]
		if s.Config() != &w.sensorEnv.Config {
			t.Errorf("replacement %d does not share the post-takeover config", id)
		}
		if got := s.Config().Reliability.Manager; got != elected {
			t.Errorf("replacement %d starts with manager %d, want elected %d", id, got, elected)
		}
	}
}
