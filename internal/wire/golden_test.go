package wire

import (
	"encoding/hex"
	"strings"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
)

// goldenPacket is a routed failure report: a Packet envelope (Path nil)
// nesting a FailureReport body.
var goldenPacket = netstack.Packet{
	Src: 9, Dst: 2, DstLoc: geom.Pt(100, 100), Category: metrics.CatFailureReport,
	Hops: 2, TTL: 30, Mode: netstack.ModeGreedy, EntryLoc: geom.Pt(1, 2), PrevLoc: geom.Pt(3, 4),
	Payload: FailureReport{Failed: 4, Loc: geom.Pt(10, 20), Reporter: 9, DetectedAt: 123.5, Seq: 3, ReporterLoc: geom.Pt(9, 9)},
}

// golden joins hex fragments, so a layout can be written field by field.
func golden(parts ...string) string { return strings.Join(parts, "") }

// TestEncodeGoldenBytes pins the exact byte layout of every message type,
// the network envelopes and a full CRC-protected frame. Round-trip and
// size tests alone would accept a changed layout that still round-trips;
// these bytes are the over-the-air contract.
func TestEncodeGoldenBytes(t *testing.T) {
	bodies := allMessages()
	want := []string{
		"010700000000000000000000000000f83f00000000000002c0",
		"02ffffffffffffffff0000000000000000000000000000000001",
		"020c000000000000000000000000007940000000000000794000",
		"0303000000000000000000000000f05840000000000000c03f",
		"04040000000000000000000000000024400000000000003440050000000000000077be9f1a2fdd5e40000000000000001000000000000026400000000000003540",
		"05050000000000000004000000000000002a00000000000000",
		"060200000000000000ffffffffffffffff",
		"0729230000000000001100000000000000",
		"0829230000000000001100000000000000",
		"092a23000000000000000000000000e0bf0000000065cdcd41",
		"0a0800000000000000000000000000084000000000000010400000000000498840282300000000000000000000000014400000000000001840",
		"0b2b23000000000000000000000000694000000000000069400300000000000000feffffffffffffff01",
		"0c2c230000000000000000000000205e400000000000000ec00700000000010000",
	}
	failureReport := golden(
		"04",                                   // tagFailureReport
		"0400000000000000",                     // Failed
		"0000000000002440", "0000000000003440", // Loc
		"0900000000000000",                     // Reporter
		"0000000000e05e40",                     // DetectedAt
		"0300000000000000",                     // Seq
		"0000000000002240", "0000000000002240", // ReporterLoc
	)
	bodies = append(bodies,
		goldenPacket,
		netstack.Packet{
			Src: 9, Dst: 2, Category: metrics.CatAck, Mode: netstack.ModePerimeter,
			Path: []radio.NodeID{5, 6, 7}, Payload: ReportAck{Reporter: 5, Failed: 4, Seq: 42},
		},
		netstack.Packet{Src: 1, Dst: 2, Category: metrics.CatAck, Path: []radio.NodeID{}},
		netstack.FloodMsg{
			Origin: 4, Seq: 17, Category: metrics.CatLocUpdate, Hops: 1, TTL: 32,
			Payload: RobotUpdate{Robot: 4, Loc: geom.Pt(50, 50), Seq: 17, Load: 2},
		},
		netstack.FloodMsg{Origin: 4, Seq: 1, Category: metrics.CatInit, TTL: 32, Relays: []radio.NodeID{}},
		netstack.FloodMsg{
			Origin: 4, Seq: 18, Category: metrics.CatLocUpdate, TTL: 32,
			Relays:  []radio.NodeID{11, 12},
			Payload: netstack.Packet{Src: 4, Dst: 5, Category: metrics.CatAck, Payload: HeartbeatAck{Manager: 4, Seq: 1}},
		},
	)
	want = append(want,
		golden(
			"20",                                   // tagPacket
			"0900000000000000",                     // Src
			"0200000000000000",                     // Dst
			"0000000000005940", "0000000000005940", // DstLoc
			"0e00", hex.EncodeToString([]byte("failure_report")), // Category
			"0200000000000000",                     // Hops
			"1e00000000000000",                     // TTL
			"0100000000000000",                     // Mode
			"000000000000f03f", "0000000000000040", // EntryLoc
			"0000000000000840", "0000000000001040", // PrevLoc
			"00",          // Path: nil
			"4100",        // nested body length 65
			failureReport, // Payload
		),
		golden(
			"20", "0900000000000000", "0200000000000000",
			"0000000000000000", "0000000000000000",
			"0300", hex.EncodeToString([]byte("ack")),
			"0000000000000000", "0000000000000000", "0200000000000000",
			"0000000000000000", "0000000000000000", "0000000000000000", "0000000000000000",
			"01", "0300", "0500000000000000", "0600000000000000", "0700000000000000", // Path
			"1900", "05050000000000000004000000000000002a00000000000000",
		),
		golden(
			"20", "0100000000000000", "0200000000000000",
			"0000000000000000", "0000000000000000",
			"0300", hex.EncodeToString([]byte("ack")),
			"0000000000000000", "0000000000000000", "0000000000000000",
			"0000000000000000", "0000000000000000", "0000000000000000", "0000000000000000",
			"01", "0000", // Path: empty, not nil
			"0000", // Payload: nil
		),
		golden(
			"21",               // tagFloodMsg
			"0400000000000000", // Origin
			"1100000000000000", // Seq
			"0f00", hex.EncodeToString([]byte("location_update")),
			"0100000000000000", // Hops
			"2000000000000000", // TTL
			"00",               // Relays: nil (everyone may relay)
			"2a00", "0b0400000000000000000000000000494000000000000049401100000000000000020000000000000000",
		),
		golden(
			"21", "0400000000000000", "0100000000000000",
			"0400", hex.EncodeToString([]byte("init")),
			"0000000000000000", "2000000000000000",
			"01", "0000", // Relays: empty (no one may relay)
			"0000", // Payload: nil
		),
		golden(
			"21", "0400000000000000", "1200000000000000",
			"0f00", hex.EncodeToString([]byte("location_update")),
			"0000000000000000", "2000000000000000",
			"01", "0200", "0b00000000000000", "0c00000000000000",
			"7200", // a Packet nested in a flood: two back-patched lengths
			golden(
				"20", "0400000000000000", "0500000000000000",
				"0000000000000000", "0000000000000000",
				"0300", hex.EncodeToString([]byte("ack")),
				"0000000000000000", "0000000000000000", "0000000000000000",
				"0000000000000000", "0000000000000000", "0000000000000000", "0000000000000000",
				"00",
				"1100", "0604000000000000000100000000000000",
			),
		),
	)
	if len(bodies) != len(want) {
		t.Fatalf("%d bodies, %d golden encodings", len(bodies), len(want))
	}
	for i, msg := range bodies {
		b, err := Encode(msg)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", msg, err)
		}
		if got := hex.EncodeToString(b); got != want[i] {
			t.Errorf("Encode(%T #%d):\n got %s\nwant %s", msg, i, got, want[i])
		}
	}

	frames := []struct {
		f    radio.Frame
		want string
	}{
		{
			radio.Frame{Src: 9, Dst: 2, Category: metrics.CatFailureReport, Payload: goldenPacket},
			golden(
				"9537c504",         // CRC-32/IEEE of the rest
				"0900000000000000", // Src
				"0200000000000000", // Dst
				"0e00", hex.EncodeToString([]byte("failure_report")),
				"ad00", want[len(allMessages())], // the Packet body, 173 bytes
			),
		},
		{
			radio.Frame{Src: 1, Dst: radio.IDBroadcast, Category: metrics.CatBeacon},
			golden(
				"f1ca3984", "0100000000000000", "ffffffffffffffff",
				"0600", hex.EncodeToString([]byte("beacon")),
				"0000", // Payload: nil
			),
		},
	}
	var c FrameCodec
	for _, tc := range frames {
		b, err := c.Encode(tc.f)
		if err != nil {
			t.Fatalf("FrameCodec.Encode(%+v): %v", tc.f, err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("FrameCodec.Encode(%+v):\n got %s\nwant %s", tc.f, got, tc.want)
		}
	}
}
