package scenario

import (
	"fmt"
	"testing"

	"roborepair/internal/chaos"
	"roborepair/internal/core"
	"roborepair/internal/geom"
	"roborepair/internal/sim"
)

// unrepairedSitesByLiveMap is unrepairedSites as first written, the
// reference for TestUnrepairedSitesMatchesReference: a map of every live
// sensor's site, then the dead sites it does not hold.
func unrepairedSitesByLiveMap(w *World) int {
	alive := make(map[geom.Point]bool, len(w.Sensors))
	dead := make(map[geom.Point]bool)
	for _, s := range w.Sensors {
		if s.Alive() {
			alive[s.Pos()] = true
		} else {
			dead[s.Pos()] = true
		}
	}
	n := 0
	for pos := range dead {
		if !alive[pos] {
			n++
		}
	}
	return n
}

// TestUnrepairedSitesMatchesReference counts unrepaired sites both ways
// on fields that hold every kind of site: repaired ones, unrepaired ones,
// and sites where a blackout made the paper protocol (no duplicate check)
// drop a false-positive spare next to a live original, which may die
// later (the distributed algorithms do, on this field). The two counts must agree every 500 s of each run.
func TestUnrepairedSitesMatchesReference(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Fixed, core.Dynamic} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := quickConfig(alg, 4)
			cfg.Seed = 1
			cfg.MeanLifetime = cfg.SimTime / 2
			side := cfg.FieldSide()
			plan, err := chaos.Parse(fmt.Sprintf("blackout@1500-3500=%g,%g,%g", side/2, side/2, side/3))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
			w, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spares := 0 // sites seen holding two live sensors: false-positive spares
			for at := 500.0; at <= cfg.SimTime; at += 500 {
				w.Sched.Run(sim.Time(at))
				if got, want := w.unrepairedSites(), unrepairedSitesByLiveMap(w); got != want {
					t.Fatalf("t=%v: unrepairedSites = %d, reference %d", at, got, want)
				}
				live := map[geom.Point]int{}
				for _, s := range w.Sensors {
					if s.Alive() {
						live[s.Pos()]++
					}
				}
				for _, n := range live {
					if n > 1 {
						spares++
					}
				}
			}
			// The field must have exercised every kind of site.
			bySite := map[geom.Point][2]int{} // live, dead sensors per site
			for _, s := range w.Sensors {
				c := bySite[s.Pos()]
				if s.Alive() {
					c[0]++
				} else {
					c[1]++
				}
				bySite[s.Pos()] = c
			}
			var repaired, unrepaired int
			for _, c := range bySite {
				switch {
				case c[0] == 0:
					unrepaired++
				case c[1] > 0:
					repaired++
				}
			}
			t.Logf("sites: %d repaired, %d unrepaired at the end; %d site-checks found two live sensors", repaired, unrepaired, spares)
			if repaired == 0 || unrepaired == 0 || spares == 0 {
				t.Fatalf("sites: %d repaired, %d unrepaired at the end; %d site-checks found two live sensors; want each", repaired, unrepaired, spares)
			}
		})
	}
}
