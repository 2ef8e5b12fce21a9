package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"roborepair/internal/radio"
)

// Frame serialization for the hostile-channel layer: when the scenario
// installs a FrameCodec on the medium, every radio.Frame is rendered to
// this layout on Send and parsed back on delivery, so injected byte
// corruption meets the same defenses a real radio would need.
//
// Layout (little-endian):
//
//	[0:4]  CRC32 (IEEE) over everything after it
//	[4:12] source NodeID
//	[12:20] destination NodeID
//	then the metrics category as a u16-length-prefixed string
//	then the payload as a u16-length-prefixed message body (codec.go)
//
// CRC-32/IEEE has Hamming distance 4 at these frame sizes, so any 1–3
// flipped bits are always detected: a frame that decodes despite being
// mutated can only be a stale replay of a previously valid frame.

// frameHeaderSize is the CRC32 prefix length.
const frameHeaderSize = 4

// Decode's argument-free rejections are shared values: almost every
// corrupted frame fails the checksum, and a rejection should cost the
// receiver nothing.
var (
	errChecksum       = errors.New("wire: frame checksum mismatch")
	errMalformedFrame = errors.New("wire: malformed frame body")
)

// FrameCodec implements radio.Channel with the CRC-protected layout above.
type FrameCodec struct{}

// AppendEncode appends one frame's encoding, nested envelopes included,
// to dst and returns the extended slice, growing dst at most once. It
// fails on payloads outside the wire message set and on a category or
// body longer than its u16 length prefix (65535 bytes) — programming
// errors, not channel conditions — and then returns dst unchanged.
func (FrameCodec) AppendEncode(dst []byte, f radio.Frame) ([]byte, error) {
	start, b := len(dst), dst
	if need := frameHeaderSize + 8 + 8 + 2 + len(f.Category) + nestedSize(f.Payload); cap(b)-start < need {
		b = append(make([]byte, 0, start+need), dst...)
	}
	e := enc{b: append(b, make([]byte, frameHeaderSize)...)}
	e.id(f.Src)
	e.id(f.Dst)
	e.str(f.Category)
	e.nested(f.Payload)
	if e.err != nil {
		return dst, e.err
	}
	body := e.b[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(e.b[start:], crc32.ChecksumIEEE(body))
	return e.b, nil
}

// Encode renders one frame into a single exactly sized buffer.
func (c FrameCodec) Encode(f radio.Frame) ([]byte, error) { return c.AppendEncode(nil, f) }

// Decode parses a received buffer. It rejects short buffers, checksum
// mismatches, malformed bodies, and trailing bytes; for every accepted
// buffer Encode(Decode(b)) reproduces b exactly. sent is the frame the
// transmission carried (the zero Frame for none): a payload that decodes
// field for field — floats bit for bit — to sent's is returned as sent's
// own boxed value instead of a fresh one, nested bodies alike, so the
// result shares sent's values and is otherwise identical to decoding
// without the hint.
func (FrameCodec) Decode(b []byte, sent radio.Frame) (radio.Frame, error) {
	if len(b) < frameHeaderSize {
		return radio.Frame{}, fmt.Errorf("wire: frame shorter than its checksum (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b[:frameHeaderSize]) != crc32.ChecksumIEEE(b[frameHeaderSize:]) {
		return radio.Frame{}, errChecksum
	}
	d := dec{b: b[frameHeaderSize:]}
	f := radio.Frame{
		Src: d.id(sent.Src), Dst: d.id(sent.Dst),
		Category: d.str(sent.Category), Payload: d.nested(sent.Payload),
	}
	if d.bad {
		return radio.Frame{}, errMalformedFrame
	}
	if len(d.b) != 0 {
		return radio.Frame{}, fmt.Errorf("wire: %d trailing bytes after frame body", len(d.b))
	}
	return f, nil
}
