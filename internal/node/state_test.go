package node

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/wire"
)

var updateState = flag.Bool("update-state", false, "rewrite the sensor-state golden file")

// TestSensorStateGolden pins the checkpoint encoding of a sensor whose
// pending reports were created, acknowledged and cleared out of Seq order,
// and which heard floods from origins in descending ID order — a manager
// takeover among them, and one robot whose track then expired. The
// encoding must not depend on where the sensor keeps that state.
func TestSensorStateGolden(t *testing.T) {
	h := newHarness()
	cfg := testConfig()
	cfg.Reliability = Reliability{
		RetryBase:   4,
		RetryMax:    16,
		RobotExpiry: 45,
	}
	s := NewSensor(1, geom.Pt(0, 0), &Env{Config: cfg, Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium})
	s.Start(0.1, 1, false)
	peer := NewSensor(2, geom.Pt(30, 0), &Env{Config: cfg, Policy: allowAll{}, Hooks: &Hooks{}, Medium: h.medium})
	peer.Start(0.1, 1.5, false)
	mgr := &sink{id: 90, pos: geom.Pt(40, 10), rng: 250}
	h.medium.Attach(mgr)
	h.sched.Run(2)

	flood := func(origin radio.NodeID, seq uint64, payload any) {
		cat := metrics.CatLocUpdate
		if _, ok := payload.(wire.ManagerTakeover); ok {
			cat = metrics.CatTakeover
		}
		s.HandleFrame(radio.Frame{Payload: netstack.FloodMsg{
			Origin: origin, Seq: seq, Category: cat, Payload: payload, TTL: 8,
		}})
	}
	up := func(robot radio.NodeID, seq uint64, loc geom.Point) wire.RobotUpdate {
		return wire.RobotUpdate{Robot: robot, Loc: loc, Seq: seq}
	}
	flood(95, 3, up(95, 3, geom.Pt(50, 0)))
	flood(93, 7, up(93, 7, geom.Pt(200, 0)))
	flood(95, 2, up(95, 2, geom.Pt(55, 0))) // stale: suppressed
	flood(91, 1, up(91, 1, geom.Pt(20, 20)))
	flood(90, 4, wire.ManagerTakeover{Manager: 90, Loc: mgr.pos})
	flood(93, 7, up(93, 7, geom.Pt(200, 0))) // duplicate: suppressed

	now := h.sched.Now()
	for i := 0; i < 5; i++ {
		s.report(radio.NodeID(10+i), geom.Pt(float64(10*i), 60), now)
	}
	s.reportAfter(15, geom.Pt(5, 5), now, 12)
	ack := func(seq uint64) {
		s.DeliverPacket(netstack.Packet{Dst: 1, Payload: wire.ReportAck{Reporter: 1, Seq: seq}})
	}
	ack(4)
	ack(2)
	h.sched.Run(9)
	// A beacon from report 3's site clears it; report 5's follows later.
	s.HandleFrame(radio.Frame{Payload: wire.Beacon{From: 40, Loc: geom.Pt(20, 60)}})
	ack(1)
	h.sched.Run(30)
	s.HandleFrame(radio.Frame{Payload: wire.Beacon{From: 44, Loc: geom.Pt(40, 60)}})
	flood(92, 5, up(92, 5, geom.Pt(-30, 0)))
	// Robots 91, 93 and 95 fall silent here and expire; their flood
	// history outlives their tracks.
	h.sched.Run(80)

	got := s.AppendState(nil)
	got = peer.AppendState(got)
	path := filepath.Join("testdata", "sensor_state.golden")
	if *updateState {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
