package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"roborepair/internal/geom"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
)

// hintCases is frameCases plus a flood nesting a routed packet, so a
// reused value two envelopes deep is covered too.
func hintCases() []radio.Frame {
	return append(frameCases(), radio.Frame{Src: 6, Dst: radio.IDBroadcast, Category: "failure_report",
		Payload: netstack.FloodMsg{Origin: 6, Seq: 2, Category: "failure_report", TTL: 8, Relays: []radio.NodeID{3},
			Payload: netstack.Packet{Src: 6, Dst: 1, Category: "failure_report", Path: []radio.NodeID{6},
				Payload: FailureReport{Failed: 4, Loc: geom.Pt(10, 20), Reporter: 6, Seq: 5}}}})
}

// checkHintedDecode decodes b with and without hint and requires the two
// results to be the same frame, down to the bits of every float: both
// re-encode to b. It returns the hinted decode.
func checkHintedDecode(t *testing.T, b []byte, hint radio.Frame) radio.Frame {
	t.Helper()
	var c FrameCodec
	plain, err := c.Decode(b, radio.Frame{})
	if err != nil {
		t.Fatalf("Decode without a hint: %v", err)
	}
	got, err := c.Decode(b, hint)
	if err != nil {
		t.Fatalf("Decode with hint %+v: %v", hint, err)
	}
	re, err := c.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, b) {
		t.Fatalf("Decode with hint %+v returned %+v, which encodes to\n %x\nnot the received\n %x", hint, got, re, b)
	}
	if !reflect.DeepEqual(got, plain) && !hasNaN(reflect.ValueOf(plain)) {
		t.Fatalf("Decode with hint %+v:\n got %+v\nwant %+v", hint, got, plain)
	}
	return got
}

// TestDecodeWithMatchingHintReusesSentValues decodes every frame shape
// against the frame that was encoded: the result equals the hint-free
// decode and costs no allocation, because every boxed body is the sent
// one.
func TestDecodeWithMatchingHintReusesSentValues(t *testing.T) {
	var c FrameCodec
	for _, f := range hintCases() {
		b, err := c.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		got := checkHintedDecode(t, b, f)
		if !reflect.DeepEqual(got, f) {
			t.Errorf("Decode with its own frame as hint:\n got %+v\nwant %+v", got, f)
		}
		if n := testing.AllocsPerRun(10, func() { c.Decode(b, f) }); n != 0 {
			t.Errorf("Decode of %+v with itself as hint: %v allocations, want 0", f, n)
		}
	}
}

// TestDecodeWithDifferingHintBoxesFresh takes every frame shape and every
// hint that differs from it in exactly one field, at any nesting depth,
// and requires the decode to match the hint-free one and, when a body was
// sent, to box a fresh payload (it allocates) instead of handing over the
// hint's.
func TestDecodeWithDifferingHintBoxesFresh(t *testing.T) {
	var c FrameCodec
	for _, f := range hintCases() {
		b, err := c.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range oneFieldVariants(reflect.ValueOf(&f.Payload).Elem()) {
			hint := f
			hint.Payload = p.Interface()
			checkHintedDecode(t, b, hint)
			if f.Payload == nil {
				continue // nothing was sent to box
			}
			if n := testing.AllocsPerRun(10, func() { c.Decode(b, hint) }); n == 0 {
				t.Errorf("Decode of %+v with differing hint %+v allocated nothing: it reused the hint", f.Payload, hint.Payload)
			}
		}
		// Frame-level fields are not boxed; a hint differing there must
		// still decode to the received frame.
		for _, hint := range []radio.Frame{
			{Src: f.Src + 1, Dst: f.Dst, Category: f.Category, Payload: f.Payload},
			{Src: f.Src, Dst: f.Dst + 1, Category: f.Category, Payload: f.Payload},
			{Src: f.Src, Dst: f.Dst, Category: f.Category + "x", Payload: f.Payload},
		} {
			checkHintedDecode(t, b, hint)
		}
	}
}

// TestDecodeHintEdgeCases names the differences an equality test gets
// wrong: signed zeros and NaN payloads (== calls the first equal and the
// second unequal, the bits say the reverse), nil against empty ID lists,
// and bodies of another type or at another nesting depth.
func TestDecodeHintEdgeCases(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	negZero := math.Copysign(0, -1)
	report := FailureReport{Failed: 4, Loc: geom.Pt(10, 20), Reporter: 9, Seq: 3}
	packet := netstack.Packet{Src: 9, Dst: 2, Category: "failure_report", Payload: report}
	flood := netstack.FloodMsg{Origin: 4, Seq: 17, Category: "loc_update", TTL: 32,
		Payload: RobotUpdate{Robot: 4, Loc: geom.Pt(50, 50), Seq: 17}}
	withPath := func(p netstack.Packet, path []radio.NodeID) netstack.Packet { p.Path = path; return p }
	withRelays := func(m netstack.FloodMsg, r []radio.NodeID) netstack.FloodMsg { m.Relays = r; return m }
	withBody := func(m netstack.FloodMsg, body any) netstack.FloodMsg { m.Payload = body; return m }
	for _, tc := range []struct {
		name       string
		sent, hint any
		reuse      bool
	}{
		{"-0 against +0", Beacon{From: 1, Loc: geom.Pt(negZero, 0)}, Beacon{From: 1, Loc: geom.Pt(0, 0)}, false},
		{"+0 against -0", Beacon{From: 1, Loc: geom.Pt(0, 0)}, Beacon{From: 1, Loc: geom.Pt(negZero, 0)}, false},
		{"-0 against itself", Beacon{From: 1, Loc: geom.Pt(negZero, 0)}, Beacon{From: 1, Loc: geom.Pt(negZero, 0)}, true},
		{"two NaN patterns", Beacon{From: 1, Loc: geom.Pt(nan1, 0)}, Beacon{From: 1, Loc: geom.Pt(nan2, 0)}, false},
		{"NaN against its own bits", Beacon{From: 1, Loc: geom.Pt(nan1, 0)}, Beacon{From: 1, Loc: geom.Pt(nan1, 0)}, true},
		{"nil Path against empty", packet, withPath(packet, []radio.NodeID{}), false},
		{"empty Path against nil", withPath(packet, []radio.NodeID{}), packet, false},
		{"nil Relays against empty", flood, withRelays(flood, []radio.NodeID{}), false},
		{"empty Relays against nil", withRelays(flood, []radio.NodeID{}), flood, false},
		{"different nested body", flood, withBody(flood, RobotUpdate{Robot: 4, Loc: geom.Pt(50, 50), Seq: 18}), false},
		{"nested body of another type", flood, withBody(flood, Relocate{Robot: 4, Dest: geom.Pt(50, 50), Seq: 17}), false},
		{"nested body against none", flood, withBody(flood, nil), false},
		{"different type", report, ReportAck{Reporter: 9, Failed: 4, Seq: 3}, false},
		{"packet against a flood nesting it", packet, withBody(flood, packet), false},
		{"flood nesting a packet against the packet", withBody(flood, packet), packet, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c FrameCodec
			sent := radio.Frame{Src: 1, Dst: radio.IDBroadcast, Category: "beacon", Payload: tc.sent}
			b, err := c.Encode(sent)
			if err != nil {
				t.Fatal(err)
			}
			hint := sent
			hint.Payload = tc.hint
			checkHintedDecode(t, b, hint)
			n := testing.AllocsPerRun(10, func() { c.Decode(b, hint) })
			if tc.reuse && n != 0 {
				t.Errorf("identical bits: %v allocations, want 0 (the hint reused)", n)
			}
			if !tc.reuse && n == 0 {
				t.Errorf("differing hint: no allocation, so the hint's value was handed over")
			}
		})
	}
}

// oneFieldVariants returns copies of the value v holds, each differing
// from it in exactly one leaf field: integers and booleans change value,
// floats change their bits (0 becomes −0), strings grow, ID lists swap
// nil and empty or change an element, and a nested body is dropped,
// replaced, or varied recursively.
func oneFieldVariants(v reflect.Value) []reflect.Value {
	with := func(set func(reflect.Value)) reflect.Value {
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		set(c)
		return c
	}
	var out []reflect.Value
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		out = append(out, with(func(c reflect.Value) { c.SetInt(v.Int() + 1) }))
	case reflect.Uint64:
		out = append(out, with(func(c reflect.Value) { c.SetUint(v.Uint() + 1) }))
	case reflect.Float64:
		out = append(out, with(func(c reflect.Value) {
			c.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1<<63))
		}))
	case reflect.Bool:
		out = append(out, with(func(c reflect.Value) { c.SetBool(!v.Bool()) }))
	case reflect.String:
		out = append(out, with(func(c reflect.Value) { c.SetString(v.String() + "x") }))
	case reflect.Slice:
		if v.IsNil() {
			out = append(out, with(func(c reflect.Value) { c.Set(reflect.MakeSlice(v.Type(), 0, 0)) }))
			break
		}
		out = append(out, with(func(c reflect.Value) { c.Set(reflect.Zero(v.Type())) }))
		if v.Len() > 0 {
			out = append(out, with(func(c reflect.Value) {
				s := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
				reflect.Copy(s, v)
				s.Index(0).SetInt(s.Index(0).Int() + 1)
				c.Set(s)
			}))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			for _, fv := range oneFieldVariants(v.Field(i)) {
				out = append(out, with(func(c reflect.Value) { c.Field(i).Set(fv) }))
			}
		}
	case reflect.Interface:
		if v.IsNil() {
			out = append(out, with(func(c reflect.Value) { c.Set(reflect.ValueOf(Beacon{})) }))
			break
		}
		out = append(out, with(func(c reflect.Value) { c.Set(reflect.Zero(v.Type())) }))
		for _, ev := range oneFieldVariants(v.Elem()) {
			out = append(out, with(func(c reflect.Value) { c.Set(ev) }))
		}
	default:
		panic("oneFieldVariants: unhandled kind " + v.Kind().String())
	}
	return out
}

// hasNaN reports whether any float reachable from v is a NaN, where
// reflect.DeepEqual cannot compare.
func hasNaN(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		return math.IsNaN(v.Float())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if hasNaN(v.Field(i)) {
				return true
			}
		}
	case reflect.Interface:
		return !v.IsNil() && hasNaN(v.Elem())
	}
	return false
}
