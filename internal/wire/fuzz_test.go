package wire

import (
	"bytes"
	"reflect"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
)

// FuzzWireDecode drives Decode with arbitrary buffers. Properties: Decode
// never panics, and any buffer it accepts re-encodes to exactly the
// input bytes (the codec has one canonical form per message).
func FuzzWireDecode(f *testing.F) {
	seeds := []any{
		Beacon{From: 7, Loc: geom.Pt(1.5, -2.25)},
		LocationAnnounce{From: -1, Loc: geom.Pt(100, 100), Replacement: true},
		FailureReport{Failed: 4, Loc: geom.Pt(10, 20), Reporter: 5, DetectedAt: 123.456, Seq: 9, ReporterLoc: geom.Pt(11, 21)},
		ReportAck{Reporter: 5, Failed: 4, Seq: 42},
		RepairRequest{Failed: 8, Loc: geom.Pt(3, 4), IssuedAt: 777.125, Manager: 9000, ManagerLoc: geom.Pt(5, 6)},
		RobotUpdate{Robot: 9003, Loc: geom.Pt(200, 200), Seq: 3, Load: 1, Managing: false},
		Relocate{Robot: 3, Dest: geom.Pt(150, 250), Seq: 8},
		netstack.Packet{Src: 9, Dst: 2, DstLoc: geom.Pt(100, 100), Category: "failure_report",
			Payload: FailureReport{Failed: 4, Loc: geom.Pt(10, 20), Reporter: 9, Seq: 3},
			Hops:    2, TTL: 30, Mode: netstack.ModePerimeter, EntryLoc: geom.Pt(1, 2), PrevLoc: geom.Pt(3, 4),
			Path: []radio.NodeID{5, 6, 7}},
		netstack.FloodMsg{Origin: 4, Seq: 17, Category: "loc_update", Hops: 1, TTL: 32,
			Relays:  []radio.NodeID{},
			Payload: RobotUpdate{Robot: 4, Loc: geom.Pt(50, 50), Seq: 17}},
	}
	for _, msg := range seeds {
		b, err := Encode(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xEE})
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := Decode(b)
		if err != nil {
			return
		}
		re, err := Encode(msg)
		if err != nil {
			t.Fatalf("decoded %+v but cannot re-encode: %v", msg, err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted buffer is not canonical:\n  in %x\n out %x\n msg %+v", b, re, msg)
		}
	})
}

// FuzzFrameCorrupt drives the frame decoder with arbitrary buffers — the
// exact exposure the hostile channel creates, where any byte mutation may
// reach Decode. Properties: Decode never panics, and any buffer it
// accepts re-encodes to exactly the input bytes, so a mutated frame can
// never silently pass as a different valid frame (canonical form plus the
// CRC means an accepted buffer IS a valid encoding). Decoding against any
// seed frame as the sent one — as the medium does for every reception —
// accepts exactly the same buffers and yields the same frame.
func FuzzFrameCorrupt(f *testing.F) {
	var c FrameCodec
	seeds := []radio.Frame{
		{Src: 1, Dst: radio.IDBroadcast, Category: "beacon", Payload: Beacon{From: 1, Loc: geom.Pt(2, 3)}},
		{Src: 9, Dst: 2, Category: "failure_report", Payload: netstack.Packet{
			Src: 9, Dst: 2, DstLoc: geom.Pt(100, 100), Category: "failure_report",
			Payload: FailureReport{Failed: 4, Loc: geom.Pt(10, 20), Reporter: 9, Seq: 3},
			TTL:     30, Mode: netstack.ModeGreedy}},
		{Src: 4, Dst: radio.IDBroadcast, Category: "loc_update", Payload: netstack.FloodMsg{
			Origin: 4, Seq: 17, Category: "loc_update", TTL: 32,
			Payload: RobotUpdate{Robot: 4, Loc: geom.Pt(50, 50), Seq: 17, Load: 2}}},
		{Src: 3, Dst: 8, Category: "ack", Payload: ReportAck{Reporter: 5, Failed: 4, Seq: 42}},
	}
	for _, fr := range seeds {
		b, err := c.Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// A corrupted variant so the corpus starts on the reject path too.
		g := append([]byte{}, b...)
		g[len(g)-1] ^= 0x40
		f.Add(g)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := c.Decode(b, radio.Frame{})
		for _, hint := range seeds {
			g, herr := c.Decode(b, hint)
			if (herr == nil) != (err == nil) {
				t.Fatalf("with hint %+v Decode returned error %v, without one %v", hint, herr, err)
			}
			if err == nil && !reflect.DeepEqual(g, fr) && !hasNaN(reflect.ValueOf(fr)) {
				t.Fatalf("with hint %+v Decode returned\n %+v\nwithout one\n %+v", hint, g, fr)
			}
			if err == nil {
				if re, rerr := c.Encode(g); rerr != nil || !bytes.Equal(re, b) {
					t.Fatalf("hinted decode %+v does not re-encode to the input (%v)", g, rerr)
				}
			}
		}
		if err != nil {
			return
		}
		re, err := c.Encode(fr)
		if err != nil {
			t.Fatalf("decoded %+v but cannot re-encode: %v", fr, err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted frame buffer is not canonical:\n  in %x\n out %x", b, re)
		}
	})
}
