package checkpoint

import (
	"encoding/binary"
	"math"
)

// Little-endian append helpers for section payloads. Every subsystem's
// AppendState method builds its payload with these, so all sections share
// one wire convention: fixed-width LE scalars, float64 bit patterns,
// strict 0/1 booleans, u32-length-prefixed strings. The payloads exist to
// be byte-compared (snapshot vs. replayed state), so canonical encoding —
// sorted map iteration at the call sites, no varints, no padding — is the
// whole point.

// AppendU32 appends v as 4 little-endian bytes.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI64 appends v as 8 little-endian two's-complement bytes.
func AppendI64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

// AppendF64 appends v's IEEE-754 bit pattern as 8 little-endian bytes.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends a strict 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends p with a u32 length prefix.
func AppendBytes(b, p []byte) []byte {
	b = AppendU32(b, uint32(len(p)))
	return append(b, p...)
}

// AppendString appends s with a u32 length prefix.
func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}
