package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
)

// frameCases is one representative frame per payload shape the medium can
// carry: every bare wire message, routed packets (Path nil, empty, and
// populated), and floods (Relays nil for blind flooding vs. empty for a
// designated-forwarder set with nobody in it — the distinction is
// semantic and must survive the codec).
func frameCases() []radio.Frame {
	frames := []radio.Frame{
		{Src: 1, Dst: radio.IDBroadcast, Category: "beacon"},
		{Src: -1, Dst: 7, Category: ""},
	}
	for _, msg := range allMessages() {
		frames = append(frames, radio.Frame{Src: 3, Dst: radio.IDBroadcast, Category: "loc_update", Payload: msg})
	}
	frames = append(frames,
		radio.Frame{Src: 9, Dst: 2, Category: "failure_report", Payload: netstack.Packet{
			Src: 9, Dst: 2, DstLoc: geom.Pt(100, 100), Category: "failure_report",
			Payload: FailureReport{Failed: 4, Loc: geom.Pt(10, 20), Reporter: 9, DetectedAt: 123.5, Seq: 3, ReporterLoc: geom.Pt(9, 9)},
			Hops:    2, TTL: 30, Mode: netstack.ModeGreedy, EntryLoc: geom.Pt(1, 2), PrevLoc: geom.Pt(3, 4),
		}},
		radio.Frame{Src: 9, Dst: 2, Category: "ack", Payload: netstack.Packet{
			Src: 9, Dst: 2, Mode: netstack.ModePerimeter,
			Path: []radio.NodeID{5, 6, 7},
		}},
		radio.Frame{Src: 9, Dst: 2, Category: "ack", Payload: netstack.Packet{
			Src: 9, Dst: 2, Path: []radio.NodeID{},
		}},
		radio.Frame{Src: 4, Dst: radio.IDBroadcast, Category: "loc_update", Payload: netstack.FloodMsg{
			Origin: 4, Seq: 17, Category: "loc_update", Hops: 1, TTL: 32,
			Payload: RobotUpdate{Robot: 4, Loc: geom.Pt(50, 50), Seq: 17, Load: 2},
		}},
		radio.Frame{Src: 4, Dst: radio.IDBroadcast, Category: "loc_update", Payload: netstack.FloodMsg{
			Origin: 4, Seq: 18, Category: "loc_update", TTL: 32,
			Relays:  []radio.NodeID{11, 12},
			Payload: RobotUpdate{Robot: 4, Loc: geom.Pt(51, 50), Seq: 18},
		}},
		radio.Frame{Src: 4, Dst: radio.IDBroadcast, Category: "init", Payload: netstack.FloodMsg{
			Origin: 4, Seq: 1, Category: "init", TTL: 32, Relays: []radio.NodeID{},
		}},
	)
	return frames
}

func TestFrameRoundTrip(t *testing.T) {
	var c FrameCodec
	for _, f := range frameCases() {
		b, err := c.Encode(f)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", f, err)
		}
		got, err := c.Decode(b, radio.Frame{})
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", f, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, f)
		}
		re, err := c.Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, b) {
			t.Errorf("re-encode of %+v not byte-identical", f)
		}
		// One exactly sized buffer per frame, nested envelopes included.
		if cap(b) != len(b) {
			t.Errorf("Encode(%+v): %d bytes in a buffer of %d", f, len(b), cap(b))
		}
		if n := testing.AllocsPerRun(10, func() { c.Encode(f) }); n != 1 {
			t.Errorf("Encode(%+v): %v allocations, want 1", f, n)
		}
		// AppendEncode keeps dst's bytes and, given room, allocates nothing.
		dst := append(make([]byte, 0, 3+len(b)), "pre"...)
		if app, err := c.AppendEncode(dst, f); err != nil || string(app[:3]) != "pre" || !bytes.Equal(app[3:], b) {
			t.Errorf("AppendEncode(%q, %+v) = %x, %v; want the prefix, then %x", dst, f, app, err, b)
		}
		if n := testing.AllocsPerRun(10, func() { c.AppendEncode(dst[:0], f) }); n != 0 {
			t.Errorf("AppendEncode(%+v) into a large enough buffer: %v allocations, want 0", f, n)
		}
		// The medium reuses a transmission's buffer once it is decoded,
		// so the decoded frame must not alias it.
		for i := range b {
			b[i] = 0xFF
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("decoded frame changed with its buffer:\n got %+v\nwant %+v", got, f)
		}
	}
}

// TestFrameDetectsEverySmallMutation flips every single bit and every
// pair of bits (stride-sampled) of an encoded frame and requires Decode
// to reject the result: CRC-32/IEEE has Hamming distance 4 at these
// sizes, which is what lets the medium treat a mutated-yet-decodable
// buffer as a stale replay rather than silent corruption.
func TestFrameDetectsEverySmallMutation(t *testing.T) {
	var c FrameCodec
	b, err := c.Encode(radio.Frame{Src: 3, Dst: 8, Category: "failure_report", Payload: ReportAck{Reporter: 5, Failed: 4, Seq: 42}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(bits ...int) []byte {
		g := make([]byte, len(b))
		copy(g, b)
		for _, bit := range bits {
			g[bit/8] ^= 1 << (bit % 8)
		}
		return g
	}
	n := len(b) * 8
	for i := 0; i < n; i++ {
		if _, err := c.Decode(mutate(i), radio.Frame{}); err == nil {
			t.Fatalf("single-bit flip at %d accepted", i)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j += 7 {
			if _, err := c.Decode(mutate(i, j), radio.Frame{}); err == nil {
				t.Fatalf("double-bit flip at %d,%d accepted", i, j)
			}
		}
	}
}

func TestFrameDecodeRejectsMalformed(t *testing.T) {
	var c FrameCodec
	b, err := c.Encode(radio.Frame{Src: 1, Dst: radio.IDBroadcast, Category: "beacon", Payload: Beacon{From: 1, Loc: geom.Pt(2, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"nil", nil},
		{"shorter than checksum", b[:3]},
		{"header only", b[:frameHeaderSize]},
		{"truncated body", b[:len(b)-1]},
		{"trailing garbage", append(append([]byte{}, b...), 0xAA)},
	}
	for _, tc := range cases {
		if _, err := c.Decode(tc.b, radio.Frame{}); err == nil {
			t.Errorf("%s: Decode accepted %x", tc.name, tc.b)
		}
	}
}

// TestFrameRejectionsAllocateNothing decodes the two rejections a
// corrupted frame almost always meets — a checksum mismatch, and a body
// that does not parse under a valid checksum — and requires neither to
// allocate: the errors are shared values.
func TestFrameRejectionsAllocateNothing(t *testing.T) {
	var c FrameCodec
	b, err := c.Encode(radio.Frame{Src: 1, Dst: radio.IDBroadcast, Category: "beacon", Payload: Beacon{From: 1, Loc: geom.Pt(2, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(b)
	flipped[len(flipped)-1] ^= 1
	short := bytes.Clone(b[:len(b)-1])
	binary.LittleEndian.PutUint32(short, crc32.ChecksumIEEE(short[frameHeaderSize:]))
	for _, tc := range []struct {
		name string
		b    []byte
		want error
	}{
		{"checksum mismatch", flipped, errChecksum},
		{"malformed body", short, errMalformedFrame},
	} {
		if _, err := c.Decode(tc.b, radio.Frame{}); err != tc.want {
			t.Fatalf("%s: Decode error %v, want %v", tc.name, err, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { c.Decode(tc.b, radio.Frame{}) }); n != 0 {
			t.Errorf("%s: rejecting the frame made %v allocations, want 0", tc.name, n)
		}
	}
}

func TestFrameEncodeRejectsNonWirePayload(t *testing.T) {
	var c FrameCodec
	if _, err := c.Encode(radio.Frame{Src: 1, Dst: 2, Payload: struct{ X int }{1}}); err == nil {
		t.Fatal("Encode accepted a non-wire payload")
	}
	// A category longer than the u16 length prefix can carry must fail
	// loudly, not truncate.
	if _, err := c.Encode(radio.Frame{Src: 1, Dst: 2, Category: strings.Repeat("x", 1<<16)}); err == nil {
		t.Fatal("Encode accepted an over-long category")
	}
	// So must a nested body past 65535 bytes, whose length is patched in
	// after it is written.
	long := netstack.Packet{Src: 1, Dst: 2, Path: make([]radio.NodeID, 8200)}
	if _, err := c.Encode(radio.Frame{Src: 1, Dst: 2, Payload: long}); err == nil {
		t.Fatal("Encode accepted an over-long nested body")
	}
	if _, err := Encode(netstack.FloodMsg{Payload: long}); err == nil {
		t.Fatal("Encode accepted an over-long body nested in a flood")
	}
}

// TestFrameDecodeInternsCategories checks that a decoded traffic category
// is the metrics constant, not a fresh copy: the only allocation left in
// decoding a bare beacon frame is the boxed payload.
func TestFrameDecodeInternsCategories(t *testing.T) {
	var c FrameCodec
	for _, tc := range []struct {
		category string
		allocs   float64
	}{
		{metrics.CatBeacon, 1},
		{"not_a_category", 2},
	} {
		b, err := c.Encode(radio.Frame{Src: 1, Dst: radio.IDBroadcast, Category: tc.category, Payload: Beacon{From: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() { c.Decode(b, radio.Frame{}) }); n != tc.allocs {
			t.Errorf("Decode of a %q frame: %v allocations, want %v", tc.category, n, tc.allocs)
		}
	}
}
