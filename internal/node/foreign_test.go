package node

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
	"roborepair/internal/wire"
)

// TestSensorStateForeignLocations hears booted peers at locations other
// than their own — a replayed beacon one metre off, a location equal to
// the peer's under == but carrying a negative zero, a beacon from an ID no
// station holds — and checks that the table keeps each heard location
// exactly. The sensor's checkpoint encoding must match
// sensor_state_foreign.golden, which records the same run with every
// table entry storing its own location.
func TestSensorStateForeignLocations(t *testing.T) {
	h := newHarness()
	cfg := testConfig()
	s := NewSensor(1, geom.Pt(0, 0), &Env{Config: cfg, Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium})
	s.Start(0.1, 1, false)
	peer := NewSensor(2, geom.Pt(30, 0), &Env{Config: cfg, Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium})
	peer.Start(0.1, 1.5, false)
	edge := NewSensor(3, geom.Pt(0, 20), &Env{Config: cfg, Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium})
	edge.Start(0.1, 2, false)
	mgr := &sink{id: 90, pos: geom.Pt(40, 10), rng: 250}
	h.medium.Attach(mgr)
	h.sched.Run(25) // boot, guardian selection, three beacon rounds

	off := geom.Pt(31, 0)
	negZero := geom.Pt(math.Copysign(0, -1), 20)
	stray := geom.Pt(10, 10)
	s.HandleFrame(radio.Frame{Src: 2, Payload: wire.Beacon{From: 2, Loc: off}})
	s.HandleFrame(radio.Frame{Src: 3, Payload: wire.LocationAnnounce{From: 3, Loc: negZero}})
	s.HandleFrame(radio.Frame{Src: 90, Payload: wire.Beacon{From: 90, Loc: mgr.pos}})
	s.HandleFrame(radio.Frame{Src: 77, Payload: wire.Beacon{From: 77, Loc: stray}})

	same := func(a, b geom.Point) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
	}
	for _, c := range []struct {
		id  radio.NodeID
		loc geom.Point
	}{{2, off}, {3, negZero}, {90, mgr.pos}, {77, stray}} {
		n, ok := tableEntry(s, c.id)
		if !ok || !same(n.Loc, c.loc) {
			t.Errorf("entry %d = %v, %v; want heard location %v kept bit for bit", c.id, n, ok, c.loc)
		}
	}

	got := s.AppendState(nil)
	got = peer.AppendState(got)
	path := filepath.Join("testdata", "sensor_state_foreign.golden")
	if *updateState {
		if err := os.WriteFile(path, []byte(hex.Dump(got)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-state to create it)", err)
	}
	if dump := []byte(hex.Dump(got)); !bytes.Equal(dump, want) {
		t.Fatalf("sensor state encoding changed:\n got:\n%s\nwant:\n%s", dump, want)
	}
}
