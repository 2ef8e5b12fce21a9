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
// fields poison it via err, surfaced by the frame codec.
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

// dec is a consuming little-endian reader; short reads poison it. Each
// field read takes the matching field of the value the sender encoded (the
// zero value when there is none) and sets diff when the bytes say
// otherwise — floats bit for bit, so −0 differs from +0 and NaN payloads
// from each other — which is how a clean reception finds that it decoded
// exactly what was sent.
type dec struct {
	b    []byte
	bad  bool
	diff bool
}

func (d *dec) next() uint64 {
	if len(d.b) < 8 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) u64(sent uint64) uint64 {
	v := d.next()
	if v != sent {
		d.diff = true
	}
	return v
}

func (d *dec) id(sent radio.NodeID) radio.NodeID {
	return radio.NodeID(int64(d.u64(uint64(int64(sent)))))
}
func (d *dec) i(sent int) int                { return int(int64(d.u64(uint64(int64(sent))))) }
func (d *dec) f(sent float64) float64        { return math.Float64frombits(d.u64(math.Float64bits(sent))) }
func (d *dec) t(sent sim.Time) sim.Time      { return sim.Time(d.f(float64(sent))) }
func (d *dec) pt(sent geom.Point) geom.Point { return geom.Pt(d.f(sent.X), d.f(sent.Y)) }

func (d *dec) bool(sent bool) bool {
	if len(d.b) < 1 {
		d.bad = true
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		// Reject non-canonical booleans so decoding then re-encoding
		// reproduces every accepted buffer.
		d.bad = true
	}
	if (v == 1) != sent {
		d.diff = true
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

// str returns sent when the bytes spell it, then a known traffic category
// constant, and only then a fresh copy.
func (d *dec) str(sent string) string {
	n := d.u16()
	if d.bad || len(d.b) < n {
		d.bad = true
		return ""
	}
	raw := d.b[:n]
	d.b = d.b[n:]
	if string(raw) == sent {
		return sent
	}
	d.diff = true
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

// ids returns sent itself when the bytes encode the same list — present
// or absent alike, element for element — and a fresh slice otherwise.
func (d *dec) ids(sent []radio.NodeID) []radio.NodeID {
	if !d.bool(sent != nil) {
		return nil
	}
	n := d.u16()
	if d.bad || len(d.b) < n*8 {
		d.bad = true
		return nil
	}
	same := sent != nil && n == len(sent)
	for i := 0; same && i < n; i++ {
		same = radio.NodeID(int64(binary.LittleEndian.Uint64(d.b[8*i:]))) == sent[i]
	}
	if same {
		d.b = d.b[8*n:]
		return sent
	}
	d.diff = true
	out := make([]radio.NodeID, n)
	for i := range out {
		out[i] = radio.NodeID(int64(d.next()))
	}
	return out
}

// nested decodes a length-prefixed inner body against the sent one.
func (d *dec) nested(sent any) any {
	n := d.u16()
	if d.bad || len(d.b) < n {
		d.bad = true
		return nil
	}
	if n == 0 {
		if sent != nil {
			d.diff = true
		}
		return nil
	}
	sub := d.b[:n]
	d.b = d.b[n:]
	msg, reused, err := decodeBody(sub, sent)
	if err != nil {
		d.bad = true
		return nil
	}
	if !reused {
		d.diff = true
	}
	return msg
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

// bodySize is the encoded size of one message body, so FrameCodec.Encode
// allocates its buffer once; 0 for non-wire values.
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

// reuse returns sent in place of m when sent holds a T and every field d
// read matched it, so a reception of the sender's own bytes hands over
// the sender's boxed value; otherwise it boxes m. Interface values are
// never compared with ==, which panics on the slice-carrying envelopes.
func reuse[T any](d *dec, sent any, m T) (any, bool) {
	if _, ok := sent.(T); ok && !d.diff {
		return sent, true
	}
	return m, false
}

// decodeBody is the one body decoder: the frame codec and nested
// envelopes both run it. sent is the value the sender encoded, or nil; when
// the decoded value equals it field for field, the result is sent itself
// and reused is true.
func decodeBody(b []byte, sent any) (msg any, reused bool, err error) {
	if len(b) == 0 {
		return nil, false, fmt.Errorf("wire: empty buffer")
	}
	d := dec{b: b[1:]}
	switch b[0] {
	case tagBeacon:
		s, _ := sent.(Beacon)
		msg, reused = reuse(&d, sent, Beacon{From: d.id(s.From), Loc: d.pt(s.Loc)})
	case tagLocationAnnounce:
		s, _ := sent.(LocationAnnounce)
		msg, reused = reuse(&d, sent, LocationAnnounce{
			From: d.id(s.From), Loc: d.pt(s.Loc), Replacement: d.bool(s.Replacement),
		})
	case tagGuardianConfirm:
		s, _ := sent.(GuardianConfirm)
		msg, reused = reuse(&d, sent, GuardianConfirm{From: d.id(s.From), Loc: d.pt(s.Loc)})
	case tagFailureReport:
		s, _ := sent.(FailureReport)
		msg, reused = reuse(&d, sent, FailureReport{
			Failed: d.id(s.Failed), Loc: d.pt(s.Loc), Reporter: d.id(s.Reporter),
			DetectedAt: d.t(s.DetectedAt), Seq: d.u64(s.Seq), ReporterLoc: d.pt(s.ReporterLoc),
		})
	case tagReportAck:
		s, _ := sent.(ReportAck)
		msg, reused = reuse(&d, sent, ReportAck{Reporter: d.id(s.Reporter), Failed: d.id(s.Failed), Seq: d.u64(s.Seq)})
	case tagHeartbeatAck:
		s, _ := sent.(HeartbeatAck)
		msg, reused = reuse(&d, sent, HeartbeatAck{Manager: d.id(s.Manager), Seq: d.u64(s.Seq)})
	case tagDispatchAck:
		s, _ := sent.(DispatchAck)
		msg, reused = reuse(&d, sent, DispatchAck{Robot: d.id(s.Robot), Failed: d.id(s.Failed)})
	case tagRepairDone:
		s, _ := sent.(RepairDone)
		msg, reused = reuse(&d, sent, RepairDone{Robot: d.id(s.Robot), Failed: d.id(s.Failed)})
	case tagManagerTakeover:
		s, _ := sent.(ManagerTakeover)
		msg, reused = reuse(&d, sent, ManagerTakeover{Manager: d.id(s.Manager), Loc: d.pt(s.Loc)})
	case tagRepairRequest:
		s, _ := sent.(RepairRequest)
		msg, reused = reuse(&d, sent, RepairRequest{
			Failed: d.id(s.Failed), Loc: d.pt(s.Loc), IssuedAt: d.t(s.IssuedAt),
			Manager: d.id(s.Manager), ManagerLoc: d.pt(s.ManagerLoc),
		})
	case tagRobotUpdate:
		s, _ := sent.(RobotUpdate)
		msg, reused = reuse(&d, sent, RobotUpdate{
			Robot: d.id(s.Robot), Loc: d.pt(s.Loc), Seq: d.u64(s.Seq),
			Load: d.i(s.Load), Managing: d.bool(s.Managing),
		})
	case tagRelocate:
		s, _ := sent.(Relocate)
		msg, reused = reuse(&d, sent, Relocate{Robot: d.id(s.Robot), Dest: d.pt(s.Dest), Seq: d.u64(s.Seq)})
	case tagPacket:
		s, _ := sent.(netstack.Packet)
		msg, reused = reuse(&d, sent, netstack.Packet{
			Src: d.id(s.Src), Dst: d.id(s.Dst), DstLoc: d.pt(s.DstLoc), Category: d.str(s.Category),
			Hops: d.i(s.Hops), TTL: d.i(s.TTL), Mode: netstack.RouteMode(d.i(int(s.Mode))),
			EntryLoc: d.pt(s.EntryLoc), PrevLoc: d.pt(s.PrevLoc), Path: d.ids(s.Path), Payload: d.nested(s.Payload),
		})
	case tagFloodMsg:
		s, _ := sent.(netstack.FloodMsg)
		msg, reused = reuse(&d, sent, netstack.FloodMsg{
			Origin: d.id(s.Origin), Seq: d.u64(s.Seq), Category: d.str(s.Category),
			Hops: d.i(s.Hops), TTL: d.i(s.TTL), Relays: d.ids(s.Relays), Payload: d.nested(s.Payload),
		})
	default:
		return nil, false, fmt.Errorf("wire: unknown message tag %d", b[0])
	}
	if d.bad {
		return nil, false, fmt.Errorf("wire: truncated or malformed %T", msg)
	}
	if len(d.b) != 0 {
		return nil, false, fmt.Errorf("wire: %d trailing bytes after %T", len(d.b), msg)
	}
	return msg, reused, nil
}
