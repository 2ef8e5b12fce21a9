package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/netstack"
	"roborepair/internal/radio"
	"roborepair/internal/sim"
)

// Binary codec for the wire message bodies. The simulator itself passes
// payloads as Go values; this codec is the exact over-the-air layout for
// byte-budget accounting and for driving real radios from the same
// message set. The encoding is a fixed-width little-endian layout: one
// tag byte naming the type, then the struct fields in declaration order —
// NodeID and int as int64, Time and Point coordinates as float64 bits,
// bool as a strict 0/1 byte. Every decodable buffer re-encodes to
// identical bytes, and Decode rejects short buffers, trailing garbage,
// unknown tags, and non-canonical booleans.

// Message tag bytes. The explicit values are the wire contract: they must
// never be renumbered, only extended.
const (
	tagBeacon           byte = 1
	tagLocationAnnounce byte = 2
	tagGuardianConfirm  byte = 3
	tagFailureReport    byte = 4
	tagReportAck        byte = 5
	tagHeartbeatAck     byte = 6
	tagDispatchAck      byte = 7
	tagRepairDone       byte = 8
	tagManagerTakeover  byte = 9
	tagRepairRequest    byte = 10
	tagRobotUpdate      byte = 11
	tagRelocate         byte = 12

	// Network-layer envelopes (hostile-channel extension): routed packets
	// and controlled floods carry a nested message body. The gap before 32
	// leaves room for future application bodies.
	tagPacket   byte = 32
	tagFloodMsg byte = 33
)

// Encoded sizes: tag byte + 8 bytes per scalar field (bools take 1).
const (
	sizeBeacon           = 1 + 8 + 16
	sizeLocationAnnounce = 1 + 8 + 16 + 1
	sizeGuardianConfirm  = 1 + 8 + 16
	sizeFailureReport    = 1 + 8 + 16 + 8 + 8 + 8 + 16
	sizeReportAck        = 1 + 8 + 8 + 8
	sizeHeartbeatAck     = 1 + 8 + 8
	sizeDispatchAck      = 1 + 8 + 8
	sizeRepairDone       = 1 + 8 + 8
	sizeManagerTakeover  = 1 + 8 + 16
	sizeRepairRequest    = 1 + 8 + 16 + 8 + 8 + 16
	sizeRobotUpdate      = 1 + 8 + 16 + 8 + 8 + 1
	sizeRelocate         = 1 + 8 + 16 + 8

	// The envelopes' fixed parts; the category, the ID list and the
	// nested body add their own lengths.
	sizePacket   = 1 + 8 + 8 + 16 + 2 + 8 + 8 + 8 + 16 + 16
	sizeFloodMsg = 1 + 8 + 8 + 2 + 8 + 8
)

// enc is an append-only little-endian writer. Oversized variable-length
// fields poison it via err, surfaced by Encode.
type enc struct {
	b   []byte
	err error
}

func (e *enc) id(v radio.NodeID) { e.u64(uint64(int64(v))) }
func (e *enc) i(v int)           { e.u64(uint64(int64(v))) }
func (e *enc) f(v float64)       { e.u64(math.Float64bits(v)) }
func (e *enc) t(v sim.Time)      { e.f(float64(v)) }
func (e *enc) pt(p geom.Point)   { e.f(p.X); e.f(p.Y) }
func (e *enc) u64(v uint64)      { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *enc) u16(v int) {
	if v < 0 || v > math.MaxUint16 {
		e.err = fmt.Errorf("wire: length %d outside uint16", v)
		v = 0
	}
	e.b = binary.LittleEndian.AppendUint16(e.b, uint16(v))
}

func (e *enc) str(s string) {
	e.u16(len(s))
	e.b = append(e.b, s...)
}

// ids writes a NodeID list with a presence flag so nil and empty survive
// the round trip distinctly (a nil flood relay set means "everyone may
// relay"; an empty one means "no one may").
func (e *enc) ids(v []radio.NodeID) {
	if v == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.u16(len(v))
	for _, id := range v {
		e.id(id)
	}
}

// nested writes a length-prefixed inner message body; nil encodes as
// length 0 (a real body is never empty, so the form is unambiguous). The
// body is written in place after a placeholder length that is patched
// once its size is known, so a nested envelope costs no buffer of its own.
func (e *enc) nested(payload any) {
	if payload == nil {
		e.u16(0)
		return
	}
	at := len(e.b)
	e.b = append(e.b, 0, 0)
	e.body(payload)
	n := len(e.b) - at - 2
	if n > math.MaxUint16 {
		e.err = fmt.Errorf("wire: length %d outside uint16", n)
	}
	binary.LittleEndian.PutUint16(e.b[at:], uint16(n))
}

// nestedSize is the encoded size of a nested body, length prefix included.
func nestedSize(payload any) int {
	if payload == nil {
		return 2
	}
	return 2 + bodySize(payload)
}

// idsSize is the encoded size of a NodeID list, presence flag included.
func idsSize(v []radio.NodeID) int {
	if v == nil {
		return 1
	}
	return 1 + 2 + 8*len(v)
}

// dec is a consuming little-endian reader; short reads poison it.
type dec struct {
	b   []byte
	bad bool
}

func (d *dec) u64() uint64 {
	if len(d.b) < 8 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) id() radio.NodeID { return radio.NodeID(int64(d.u64())) }
func (d *dec) i() int           { return int(int64(d.u64())) }
func (d *dec) f() float64       { return math.Float64frombits(d.u64()) }
func (d *dec) t() sim.Time      { return sim.Time(d.f()) }
func (d *dec) pt() geom.Point   { return geom.Pt(d.f(), d.f()) }

func (d *dec) bool() bool {
	if len(d.b) < 1 {
		d.bad = true
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		// Reject non-canonical booleans so Encode(Decode(b)) == b holds
		// for every accepted buffer.
		d.bad = true
	}
	return v == 1
}

func (d *dec) u16() int {
	if len(d.b) < 2 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return int(v)
}

func (d *dec) str() string {
	n := d.u16()
	if d.bad || len(d.b) < n {
		d.bad = true
		return ""
	}
	raw := d.b[:n]
	d.b = d.b[n:]
	for _, s := range knownStrings {
		if string(raw) == s {
			return s
		}
	}
	return string(raw)
}

// knownStrings are the traffic categories every frame and envelope
// carries; decoding one returns the constant instead of a fresh copy.
var knownStrings = [...]string{
	metrics.CatInit, metrics.CatBeacon, metrics.CatFailureReport,
	metrics.CatRepairRequest, metrics.CatLocUpdate, metrics.CatReplacement,
	metrics.CatReportRetx, metrics.CatAck, metrics.CatTakeover, metrics.CatRelocate,
}

func (d *dec) ids() []radio.NodeID {
	if !d.bool() {
		return nil
	}
	n := d.u16()
	if d.bad || len(d.b) < n*8 {
		d.bad = true
		return nil
	}
	out := make([]radio.NodeID, n)
	for i := range out {
		out[i] = d.id()
	}
	return out
}

func (d *dec) nested() any {
	n := d.u16()
	if d.bad || len(d.b) < n {
		d.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	sub := d.b[:n]
	d.b = d.b[n:]
	msg, err := Decode(sub)
	if err != nil {
		d.bad = true
		return nil
	}
	return msg
}

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

// body appends one message body — tag byte, then fields — to e.b.
func (e *enc) body(msg any) {
	switch m := msg.(type) {
	case Beacon:
		e.b = append(e.b, tagBeacon)
		e.id(m.From)
		e.pt(m.Loc)
	case LocationAnnounce:
		e.b = append(e.b, tagLocationAnnounce)
		e.id(m.From)
		e.pt(m.Loc)
		e.bool(m.Replacement)
	case GuardianConfirm:
		e.b = append(e.b, tagGuardianConfirm)
		e.id(m.From)
		e.pt(m.Loc)
	case FailureReport:
		e.b = append(e.b, tagFailureReport)
		e.id(m.Failed)
		e.pt(m.Loc)
		e.id(m.Reporter)
		e.t(m.DetectedAt)
		e.u64(m.Seq)
		e.pt(m.ReporterLoc)
	case ReportAck:
		e.b = append(e.b, tagReportAck)
		e.id(m.Reporter)
		e.id(m.Failed)
		e.u64(m.Seq)
	case HeartbeatAck:
		e.b = append(e.b, tagHeartbeatAck)
		e.id(m.Manager)
		e.u64(m.Seq)
	case DispatchAck:
		e.b = append(e.b, tagDispatchAck)
		e.id(m.Robot)
		e.id(m.Failed)
	case RepairDone:
		e.b = append(e.b, tagRepairDone)
		e.id(m.Robot)
		e.id(m.Failed)
	case ManagerTakeover:
		e.b = append(e.b, tagManagerTakeover)
		e.id(m.Manager)
		e.pt(m.Loc)
	case RepairRequest:
		e.b = append(e.b, tagRepairRequest)
		e.id(m.Failed)
		e.pt(m.Loc)
		e.t(m.IssuedAt)
		e.id(m.Manager)
		e.pt(m.ManagerLoc)
	case RobotUpdate:
		e.b = append(e.b, tagRobotUpdate)
		e.id(m.Robot)
		e.pt(m.Loc)
		e.u64(m.Seq)
		e.i(m.Load)
		e.bool(m.Managing)
	case Relocate:
		e.b = append(e.b, tagRelocate)
		e.id(m.Robot)
		e.pt(m.Dest)
		e.u64(m.Seq)
	case netstack.Packet:
		e.b = append(e.b, tagPacket)
		e.id(m.Src)
		e.id(m.Dst)
		e.pt(m.DstLoc)
		e.str(m.Category)
		e.i(m.Hops)
		e.i(m.TTL)
		e.i(int(m.Mode))
		e.pt(m.EntryLoc)
		e.pt(m.PrevLoc)
		e.ids(m.Path)
		e.nested(m.Payload)
	case netstack.FloodMsg:
		e.b = append(e.b, tagFloodMsg)
		e.id(m.Origin)
		e.u64(m.Seq)
		e.str(m.Category)
		e.i(m.Hops)
		e.i(m.TTL)
		e.ids(m.Relays)
		e.nested(m.Payload)
	default:
		e.err = fmt.Errorf("wire: cannot encode %T", msg)
	}
}

// bodySize is the encoded size of one message body, so Encode and
// FrameCodec.Encode allocate their buffer once; 0 for non-wire values.
func bodySize(msg any) int {
	switch m := msg.(type) {
	case Beacon:
		return sizeBeacon
	case LocationAnnounce:
		return sizeLocationAnnounce
	case GuardianConfirm:
		return sizeGuardianConfirm
	case FailureReport:
		return sizeFailureReport
	case ReportAck:
		return sizeReportAck
	case HeartbeatAck:
		return sizeHeartbeatAck
	case DispatchAck:
		return sizeDispatchAck
	case RepairDone:
		return sizeRepairDone
	case ManagerTakeover:
		return sizeManagerTakeover
	case RepairRequest:
		return sizeRepairRequest
	case RobotUpdate:
		return sizeRobotUpdate
	case Relocate:
		return sizeRelocate
	case netstack.Packet:
		return sizePacket + len(m.Category) + idsSize(m.Path) + nestedSize(m.Payload)
	case netstack.FloodMsg:
		return sizeFloodMsg + len(m.Category) + idsSize(m.Relays) + nestedSize(m.Payload)
	}
	return 0
}

// Decode parses one binary message body back into its Go value. It
// rejects empty input, unknown tags, truncated bodies, and trailing
// bytes, so for every accepted buffer Encode(Decode(b)) reproduces b.
func Decode(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("wire: empty buffer")
	}
	d := dec{b: b[1:]}
	var msg any
	switch b[0] {
	case tagBeacon:
		msg = Beacon{From: d.id(), Loc: d.pt()}
	case tagLocationAnnounce:
		msg = LocationAnnounce{From: d.id(), Loc: d.pt(), Replacement: d.bool()}
	case tagGuardianConfirm:
		msg = GuardianConfirm{From: d.id(), Loc: d.pt()}
	case tagFailureReport:
		msg = FailureReport{
			Failed: d.id(), Loc: d.pt(), Reporter: d.id(),
			DetectedAt: d.t(), Seq: d.u64(), ReporterLoc: d.pt(),
		}
	case tagReportAck:
		msg = ReportAck{Reporter: d.id(), Failed: d.id(), Seq: d.u64()}
	case tagHeartbeatAck:
		msg = HeartbeatAck{Manager: d.id(), Seq: d.u64()}
	case tagDispatchAck:
		msg = DispatchAck{Robot: d.id(), Failed: d.id()}
	case tagRepairDone:
		msg = RepairDone{Robot: d.id(), Failed: d.id()}
	case tagManagerTakeover:
		msg = ManagerTakeover{Manager: d.id(), Loc: d.pt()}
	case tagRepairRequest:
		msg = RepairRequest{
			Failed: d.id(), Loc: d.pt(), IssuedAt: d.t(),
			Manager: d.id(), ManagerLoc: d.pt(),
		}
	case tagRobotUpdate:
		msg = RobotUpdate{
			Robot: d.id(), Loc: d.pt(), Seq: d.u64(),
			Load: d.i(), Managing: d.bool(),
		}
	case tagRelocate:
		msg = Relocate{Robot: d.id(), Dest: d.pt(), Seq: d.u64()}
	case tagPacket:
		msg = netstack.Packet{
			Src: d.id(), Dst: d.id(), DstLoc: d.pt(), Category: d.str(),
			Hops: d.i(), TTL: d.i(), Mode: netstack.RouteMode(d.i()),
			EntryLoc: d.pt(), PrevLoc: d.pt(), Path: d.ids(), Payload: d.nested(),
		}
	case tagFloodMsg:
		msg = netstack.FloodMsg{
			Origin: d.id(), Seq: d.u64(), Category: d.str(),
			Hops: d.i(), TTL: d.i(), Relays: d.ids(), Payload: d.nested(),
		}
	default:
		return nil, fmt.Errorf("wire: unknown message tag %d", b[0])
	}
	if d.bad {
		return nil, fmt.Errorf("wire: truncated or malformed %T", msg)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %T", len(d.b), msg)
	}
	return msg, nil
}
