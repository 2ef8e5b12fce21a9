package wire

import (
	"bytes"
	"reflect"
	"testing"

	"roborepair/internal/geom"
)

// Encode renders one wire message body into its binary layout. It returns
// an error for values that are not wire message types.
func Encode(msg any) ([]byte, error) {
	e := enc{b: make([]byte, 0, bodySize(msg))}
	e.body(msg)
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// Decode parses one binary message body back into its Go value. It
// rejects empty input, unknown tags, truncated bodies, and trailing
// bytes, so for every accepted buffer Encode(Decode(b)) reproduces b.
func Decode(b []byte) (any, error) {
	msg, _, err := decodeBody(b, nil)
	return msg, err
}

// allMessages is one representative of every wire type, with negative
// IDs (broadcast), fractional coordinates, and large sequence numbers to
// exercise the full field widths.
func allMessages() []any {
	return []any{
		Beacon{From: 7, Loc: geom.Pt(1.5, -2.25)},
		LocationAnnounce{From: -1, Loc: geom.Pt(0, 0), Replacement: true},
		LocationAnnounce{From: 12, Loc: geom.Pt(400, 400), Replacement: false},
		GuardianConfirm{From: 3, Loc: geom.Pt(99.75, 0.125)},
		FailureReport{Failed: 4, Loc: geom.Pt(10, 20), Reporter: 5, DetectedAt: 123.456, Seq: 1 << 60, ReporterLoc: geom.Pt(11, 21)},
		ReportAck{Reporter: 5, Failed: 4, Seq: 42},
		HeartbeatAck{Manager: 2, Seq: 18446744073709551615},
		DispatchAck{Robot: 9001, Failed: 17},
		RepairDone{Robot: 9001, Failed: 17},
		ManagerTakeover{Manager: 9002, Loc: geom.Pt(-0.5, 1e9)},
		RepairRequest{Failed: 8, Loc: geom.Pt(3, 4), IssuedAt: 777.125, Manager: 9000, ManagerLoc: geom.Pt(5, 6)},
		RobotUpdate{Robot: 9003, Loc: geom.Pt(200, 200), Seq: 3, Load: -2, Managing: true},
		Relocate{Robot: 9004, Dest: geom.Pt(120.5, -3.75), Seq: 1<<40 + 7},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, msg := range allMessages() {
		b, err := Encode(msg)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", msg, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, msg)
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatalf("re-Encode(%+v): %v", got, err)
		}
		if !bytes.Equal(re, b) {
			t.Errorf("re-encode of %T not byte-identical:\n got %x\nwant %x", msg, re, b)
		}
	}
}

func TestEncodedSizes(t *testing.T) {
	want := []int{
		sizeBeacon, sizeLocationAnnounce, sizeLocationAnnounce, sizeGuardianConfirm,
		sizeFailureReport, sizeReportAck, sizeHeartbeatAck, sizeDispatchAck,
		sizeRepairDone, sizeManagerTakeover, sizeRepairRequest, sizeRobotUpdate,
		sizeRelocate,
	}
	for i, msg := range allMessages() {
		b, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != want[i] {
			t.Errorf("%T encodes to %d bytes, want %d", msg, len(b), want[i])
		}
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := Encode(struct{ X int }{1}); err == nil {
		t.Fatal("Encode accepted a non-wire type")
	}
	if _, err := Encode(&Beacon{}); err == nil {
		t.Fatal("Encode accepted a pointer; only values are wire messages")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	beacon, err := Encode(Beacon{From: 1, Loc: geom.Pt(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"unknown tag", []byte{0xEE, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"tag zero", []byte{0}},
		{"tag only", beacon[:1]},
		{"truncated body", beacon[:len(beacon)-1]},
		{"trailing byte", append(append([]byte{}, beacon...), 0)},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.b); err == nil {
			t.Errorf("%s: Decode accepted %x", tc.name, tc.b)
		}
	}
}

func TestDecodeRejectsNonCanonicalBool(t *testing.T) {
	b, err := Encode(LocationAnnounce{From: 1, Loc: geom.Pt(2, 3), Replacement: true})
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] = 2
	if _, err := Decode(b); err == nil {
		t.Fatal("Decode accepted bool byte 2")
	}
}
