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

// TestSensorTablesSizedOnce boots the paper's 800-sensor field and checks,
// after every event, that no sensor's neighbor table changes capacity
// after its first insertion: the static-set sizing covers every peer a
// sensor hears through the end of boot (announcements, guardian
// selection and the first beacon round) plus the robots nearby.
func TestSensorTablesSizedOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Robots = 16
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sensors := make([]*node.Sensor, 0, len(w.Sensors))
	for _, s := range w.Sensors {
		sensors = append(sensors, s)
	}
	slices.SortFunc(sensors, func(a, b *node.Sensor) int { return int(a.ID() - b.ID()) })
	caps := make([]int, len(sensors))
	boot := sim.Time(settleDelay) + sim.Time(cfg.BeaconPeriod)
	for w.Sched.Now() <= boot && w.Sched.Step() {
		for i, s := range sensors {
			c := s.Table().Cap()
			switch {
			case caps[i] == 0:
				caps[i] = c
			case c != caps[i]:
				t.Fatalf("t=%v: sensor %d's table grew from %d to %d slots (%d entries)",
					w.Sched.Now(), s.ID(), caps[i], c, s.Table().Len())
			}
		}
	}
	sized := 0
	for _, c := range caps {
		if c > 0 {
			sized++
		}
	}
	if sized < len(sensors)*9/10 {
		t.Fatalf("only %d of %d sensors inserted a neighbor during boot", sized, len(sensors))
	}
}

// TestTakeoverConfigReachesReplacements pins the shared-config contract:
// the world hands every sensor one Config, and a takeover election swaps
// in a fresh copy naming the elected manager instead of writing through
// the pointer. Replacements spawned after the takeover start with the
// elected manager; sensors spawned before it keep the Config they hold.
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
	original := w.sensorCfg
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
	elected := w.sensorCfg.Reliability.Manager
	if elected == configured || w.sensorCfg == original {
		t.Fatalf("takeover left the sensor config in place (manager %d)", elected)
	}
	if original.Reliability.Manager != configured {
		t.Fatalf("takeover wrote through the shared config: manager %d", original.Reliability.Manager)
	}
	for id, s := range w.Sensors {
		if !slices.Contains(after, id) && s.Config() != original {
			t.Errorf("sensor %d, spawned before the takeover, lost its config", id)
		}
	}
	for _, id := range after {
		s := w.Sensors[id]
		if s.Config() != w.sensorCfg {
			t.Errorf("replacement %d does not share the post-takeover config", id)
		}
		if got := s.Config().Reliability.Manager; got != elected {
			t.Errorf("replacement %d starts with manager %d, want elected %d", id, got, elected)
		}
	}
}
