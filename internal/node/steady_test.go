package node

import (
	"slices"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/rng"
	"roborepair/internal/sim"
)

// bootField deploys n sensors uniformly over a side×side square from a
// seeded stream, sharing one Env as a World does, and runs
// the field past its boot window: announcements, guardian selection and
// two full beacon periods.
func bootField(n int, side float64, seed int64) (*harness, *Config) {
	h := newHarness()
	env := &Env{Config: testConfig(), Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium}
	cfg := &env.Config
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		pos := geom.Pt(r.Uniform(0, side), r.Uniform(0, side))
		s := NewSensor(radio.NodeID(i+1), pos, env)
		h.sensors = append(h.sensors, s)
		s.Start(sim.Duration(r.Uniform(0.05, 1)), sim.Duration(r.Jitter(float64(cfg.BeaconPeriod))), false)
	}
	h.sched.Run(sim.Time(cfg.SettleDelay + 2*cfg.BeaconPeriod))
	return h, cfg
}

// TestTableMatchesRadioStaticSet checks that node and radio agree on range:
// in a seeded 800-sensor field after the boot window, with no failures
// yet, every sensor's neighbor table holds exactly the stations the radio
// delivers its broadcasts to — its static set.
func TestTableMatchesRadioStaticSet(t *testing.T) {
	h, cfg := bootField(800, 800, 3)
	var inRange []radio.RangeEntry
	for _, s := range h.sensors {
		inRange = h.medium.AppendInRange(inRange[:0], s.Pos(), cfg.Range, s.ID())
		if ids, _, changed := h.medium.StaticSet(s.ID()); len(ids) != len(inRange) || changed {
			t.Fatalf("sensor %d: static set of %d (changed %v), %d stations in range", s.ID(), len(ids), changed, len(inRange))
		}
		var got, want []radio.NodeID
		it := s.Table().View(s.statics()).Iter()
		for n, ok := it.Next(); ok; n, ok = it.Next() {
			got = append(got, n.ID)
		}
		for _, e := range inRange {
			want = append(want, e.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("sensor %d at %v: table %v, radio set %v", s.ID(), s.Pos(), got, want)
		}
	}
}

// BenchmarkSensorSteadyState measures the node layer in its steady state:
// a booted 200-sensor field (paper density) with no failures and no
// robots. One op is one beacon period — every sensor's tick and the
// receptions it causes — and should allocate nothing.
func BenchmarkSensorSteadyState(b *testing.B) {
	h, cfg := bootField(200, 400, 1)
	until := h.sched.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until = until.Add(cfg.BeaconPeriod)
		h.sched.Run(until)
	}
}
