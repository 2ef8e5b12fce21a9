package wire

import (
	"encoding/binary"
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

// FrameCodec implements radio.Channel with the CRC-protected layout above.
type FrameCodec struct{}

// Encode renders one frame into a single exactly sized buffer, nested
// envelopes included. It fails on payloads outside the wire message set
// and on a category or body longer than its u16 length prefix (65535
// bytes) — programming errors, not channel conditions.
func (FrameCodec) Encode(f radio.Frame) ([]byte, error) {
	e := enc{b: make([]byte, frameHeaderSize, frameHeaderSize+8+8+2+len(f.Category)+nestedSize(f.Payload))}
	e.id(f.Src)
	e.id(f.Dst)
	e.str(f.Category)
	e.nested(f.Payload)
	if e.err != nil {
		return nil, e.err
	}
	binary.LittleEndian.PutUint32(e.b[:frameHeaderSize], crc32.ChecksumIEEE(e.b[frameHeaderSize:]))
	return e.b, nil
}

// Decode parses a received buffer. It rejects short buffers, checksum
// mismatches, malformed bodies, and trailing bytes; for every accepted
// buffer Encode(Decode(b)) reproduces b exactly.
func (FrameCodec) Decode(b []byte) (radio.Frame, error) {
	if len(b) < frameHeaderSize {
		return radio.Frame{}, fmt.Errorf("wire: frame shorter than its checksum (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b[:frameHeaderSize]) != crc32.ChecksumIEEE(b[frameHeaderSize:]) {
		return radio.Frame{}, fmt.Errorf("wire: frame checksum mismatch")
	}
	d := dec{b: b[frameHeaderSize:]}
	f := radio.Frame{Src: d.id(), Dst: d.id(), Category: d.str(), Payload: d.nested()}
	if d.bad {
		return radio.Frame{}, fmt.Errorf("wire: malformed frame body")
	}
	if len(d.b) != 0 {
		return radio.Frame{}, fmt.Errorf("wire: %d trailing bytes after frame body", len(d.b))
	}
	return f, nil
}
