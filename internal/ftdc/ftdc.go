// Package ftdc implements the flight recorder's compact binary
// time-series format — full-time diagnostic capture in the MongoDB FTDC
// tradition — and its strict canonical codec.
//
// A recording is a schema header followed by independent chunks. The
// header names the columns and carries the sampling cadence and run seed,
// guarded by a SHA-256 of the schema bytes and a CRC-32. Each chunk holds
// up to 64 Ki fixed-interval samples in columnar form: per column, either
// integer mode — the value stream transformed to second-order deltas
// (value, first delta, then delta-of-deltas), each zigzag-varint encoded —
// or float mode — IEEE-754 bit patterns XORed against the previous
// sample, uvarint encoded. In both modes a zero term is followed by a
// uvarint count of additional consecutive zeros (run-length encoding; a
// flat counter costs two bytes per chunk). The column blocks are
// concatenated, DEFLATE-compressed, and framed with raw/compressed
// lengths and a CRC-32, mirroring the internal/checkpoint section style.
//
// The decoder is defensive and canonical: it never panics, rejects
// truncated or bit-flipped input before allocating for it, and accepts
// only one encoding of any recording — minimal varints, maximal zero
// runs, integer mode whenever every value in the column qualifies, and
// byte-exact recompression. Every accepted buffer re-encodes to identical
// bytes (FuzzFTDCDecode locks both properties).
//
// Integer mode requires integral values with |v| ≤ 2^53 (exact in a
// float64); note -0.0 is deliberately disqualified so its sign survives
// float mode. Columns should prefer raw counters over derived rates —
// smooth integer series are what the second-order delta squeezes best.
package ftdc

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Version is the current recording format version. Decode rejects other
// versions: there is no cross-version compatibility promise, so the gate
// turns skew into a clean error instead of garbage columns.
const Version uint16 = 1

// magic identifies a recording file ("RoboRepair Flight Data").
var magic = [4]byte{'R', 'R', 'F', 'D'}

// Column encoding modes.
const (
	colModeInt   = 0 // second-order deltas, zigzag varint
	colModeFloat = 1 // XOR of IEEE-754 bit patterns, uvarint
)

// Format limits. The value bounds keep the integer-mode reconstruction
// inside int64 no matter what terms a hostile input supplies: |v| ≤ 2^53
// and |Δ| ≤ 2^54 imply |Δ²| ≤ 2^55, and 2^55 + 2^54 cannot overflow.
const (
	maxCols      = 1024
	maxNameLen   = 255
	maxChunkRows = 1 << 16
	maxChunkBody = 1 << 26 // 64 MiB of raw body is already absurd
	maxIntAbs    = int64(1) << 53
	maxDeltaAbs  = int64(1) << 54
	maxTermAbs   = int64(1) << 55
	flateLevel   = 6
)

// Decode errors. ErrCorrupt covers every structural or integrity failure;
// ErrVersion marks a structurally plausible recording from another format
// version.
var (
	ErrCorrupt = errors.New("ftdc: corrupt recording")
	ErrVersion = errors.New("ftdc: unsupported recording version")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Schema describes a recording: ordered column names plus the sampling
// cadence and run seed, for self-contained post-mortem decoding.
type Schema struct {
	// Cols are the column names, in sample order. Column 0 is by
	// convention the sample's simulated time.
	Cols []string
	// PeriodS is the sampling cadence in simulated seconds (0 = unknown).
	PeriodS float64
	// Seed is the run seed, so a banked recording names its run.
	Seed int64
}

// Validate reports the first invalid field of the schema.
func (s Schema) Validate() error {
	if len(s.Cols) == 0 || len(s.Cols) > maxCols {
		return fmt.Errorf("ftdc: column count %d outside (0, %d]", len(s.Cols), maxCols)
	}
	if math.IsNaN(s.PeriodS) || math.IsInf(s.PeriodS, 0) || s.PeriodS < 0 {
		return fmt.Errorf("ftdc: sample period %v not a finite non-negative value", s.PeriodS)
	}
	seen := make(map[string]bool, len(s.Cols))
	for i, name := range s.Cols {
		if len(name) == 0 || len(name) > maxNameLen {
			return fmt.Errorf("ftdc: column %d name length %d outside (0, %d]", i, len(name), maxNameLen)
		}
		if seen[name] {
			return fmt.Errorf("ftdc: duplicate column name %q", name)
		}
		seen[name] = true
	}
	return nil
}

// header renders the schema header: magic, version, column count, period,
// seed, names, then the SHA-256 of everything so far and a CRC-32 of
// everything including the hash.
func (s Schema) header() []byte {
	n := 4 + 2 + 2 + 8 + 8 + sha256.Size + 4
	for _, name := range s.Cols {
		n += 4 + len(name)
	}
	b := make([]byte, 0, n)
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Cols)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.PeriodS))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Seed))
	for _, name := range s.Cols {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
	}
	sum := sha256.Sum256(b)
	b = append(b, sum[:]...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b
}

// Hash returns the SHA-256 over the schema bytes — the recording's
// identity for cross-checking two captures of the same configuration.
func (s Schema) Hash() [sha256.Size]byte {
	h := s.header()
	return [sha256.Size]byte(h[len(h)-sha256.Size-4 : len(h)-4])
}

// Chunk is one decoded block of samples: Rows samples across the schema's
// columns, Cols[c][i] being column c of sample i.
type Chunk struct {
	Rows int
	Cols [][]float64
}

// Recording is the decoded form of a capture. Chunk boundaries are
// preserved so an accepted recording re-encodes byte-identically.
type Recording struct {
	Schema Schema
	Chunks []Chunk
}

// NumRows returns the total sample count across chunks.
func (r *Recording) NumRows() int {
	n := 0
	for i := range r.Chunks {
		n += r.Chunks[i].Rows
	}
	return n
}

// ColumnIndex returns the index of the named column, or -1.
func (r *Recording) ColumnIndex(name string) int {
	for i, c := range r.Schema.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Column returns the named column flattened across chunks (a copy), or
// nil when the schema has no such column.
func (r *Recording) Column(name string) []float64 {
	c := r.ColumnIndex(name)
	if c < 0 {
		return nil
	}
	out := make([]float64, 0, r.NumRows())
	for i := range r.Chunks {
		out = append(out, r.Chunks[i].Cols[c]...)
	}
	return out
}

// EachRow calls fn for every sample in order with a reused row buffer
// (copy it to retain).
func (r *Recording) EachRow(fn func(i int, row []float64)) {
	row := make([]float64, len(r.Schema.Cols))
	n := 0
	for i := range r.Chunks {
		ch := &r.Chunks[i]
		for j := 0; j < ch.Rows; j++ {
			for c := range ch.Cols {
				row[c] = ch.Cols[c][j]
			}
			fn(n, row)
			n++
		}
	}
}

// Encode serializes the recording. It errors on malformed inputs (bad
// schema, ragged or oversized chunks) rather than emitting a buffer its
// own decoder would reject.
func Encode(r *Recording) ([]byte, error) {
	if err := r.Schema.Validate(); err != nil {
		return nil, err
	}
	b := r.Schema.header()
	enc := newChunkEncoder()
	for i := range r.Chunks {
		ch := &r.Chunks[i]
		if ch.Rows <= 0 || ch.Rows > maxChunkRows {
			return nil, fmt.Errorf("ftdc: chunk %d row count %d outside (0, %d]", i, ch.Rows, maxChunkRows)
		}
		if len(ch.Cols) != len(r.Schema.Cols) {
			return nil, fmt.Errorf("ftdc: chunk %d has %d columns, schema %d", i, len(ch.Cols), len(r.Schema.Cols))
		}
		for c := range ch.Cols {
			if len(ch.Cols[c]) != ch.Rows {
				return nil, fmt.Errorf("ftdc: chunk %d column %d has %d values, want %d", i, c, len(ch.Cols[c]), ch.Rows)
			}
		}
		var err error
		b, err = enc.appendChunk(b, ch.Cols, ch.Rows)
		if err != nil {
			return nil, fmt.Errorf("ftdc: chunk %d: %w", i, err)
		}
	}
	return b, nil
}

// chunkEncoder compresses chunk bodies with reusable buffers so the
// recorder's steady state allocates only the emitted frames.
type chunkEncoder struct {
	body []byte
	comp bytes.Buffer
	fw   *flate.Writer
}

func newChunkEncoder() *chunkEncoder {
	fw, err := flate.NewWriter(io.Discard, flateLevel)
	if err != nil {
		panic(err) // unreachable: flateLevel is a valid constant level
	}
	return &chunkEncoder{fw: fw}
}

// appendChunk appends one encoded chunk frame (lengths, compressed body,
// CRC) to dst.
func (e *chunkEncoder) appendChunk(dst []byte, cols [][]float64, rows int) ([]byte, error) {
	e.body = e.body[:0]
	e.body = binary.LittleEndian.AppendUint32(e.body, uint32(rows))
	for _, col := range cols {
		e.body = appendColumn(e.body, col[:rows])
	}
	if len(e.body) > maxChunkBody {
		return nil, fmt.Errorf("chunk body %d bytes exceeds %d", len(e.body), maxChunkBody)
	}
	e.comp.Reset()
	e.fw.Reset(&e.comp)
	if _, err := e.fw.Write(e.body); err != nil {
		return nil, err
	}
	if err := e.fw.Close(); err != nil {
		return nil, err
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.body)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.comp.Len()))
	dst = append(dst, e.comp.Bytes()...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	return dst, nil
}

// recompress renders the canonical compression of body into e.comp.
func (e *chunkEncoder) recompress(body []byte) error {
	e.comp.Reset()
	e.fw.Reset(&e.comp)
	if _, err := e.fw.Write(body); err != nil {
		return err
	}
	return e.fw.Close()
}

// intQualified reports whether v belongs in integer mode: integral, exact
// in 2^53, and not negative zero (which only float mode preserves).
func intQualified(v float64) bool {
	if v != math.Trunc(v) { // also rejects NaN
		return false
	}
	if v < -float64(maxIntAbs) || v > float64(maxIntAbs) { // also rejects ±Inf
		return false
	}
	return !(v == 0 && math.Signbit(v))
}

func intQualifiedCol(col []float64) bool {
	for _, v := range col {
		if !intQualified(v) {
			return false
		}
	}
	return true
}

func appendColumn(b []byte, col []float64) []byte {
	if intQualifiedCol(col) {
		b = append(b, colModeInt)
		return appendIntTerms(b, col)
	}
	b = append(b, colModeFloat)
	return appendFloatTerms(b, col)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// flushZeroRun emits a pending run of zero terms as (0, extra-count).
func flushZeroRun(b []byte, run *int) []byte {
	if *run > 0 {
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, uint64(*run-1))
		*run = 0
	}
	return b
}

func appendIntTerms(b []byte, col []float64) []byte {
	var prev, pd int64
	run := 0
	for i, v := range col {
		cur := int64(v)
		var term int64
		if i == 0 {
			term = cur
		} else {
			d := cur - prev
			if i == 1 {
				term = d
			} else {
				term = d - pd
			}
			pd = d
		}
		prev = cur
		if u := zigzag(term); u != 0 {
			b = flushZeroRun(b, &run)
			b = binary.AppendUvarint(b, u)
		} else {
			run++
		}
	}
	return flushZeroRun(b, &run)
}

func appendFloatTerms(b []byte, col []float64) []byte {
	var prev uint64
	run := 0
	for i, v := range col {
		bits := math.Float64bits(v)
		u := bits
		if i > 0 {
			u = bits ^ prev
		}
		prev = bits
		if u != 0 {
			b = flushZeroRun(b, &run)
			b = binary.AppendUvarint(b, u)
		} else {
			run++
		}
	}
	return flushZeroRun(b, &run)
}

// dec is a bounds-checked little-endian reader.
type dec struct {
	b   []byte
	off int
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) bytes(n int) ([]byte, bool) {
	if n < 0 || d.remaining() < n {
		return nil, false
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out, true
}

func (d *dec) u16() (uint16, bool) {
	b, ok := d.bytes(2)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint16(b), true
}

func (d *dec) u32() (uint32, bool) {
	b, ok := d.bytes(4)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b), true
}

func (d *dec) u64() (uint64, bool) {
	b, ok := d.bytes(8)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

func (d *dec) u8() (byte, bool) {
	b, ok := d.bytes(1)
	if !ok {
		return 0, false
	}
	return b[0], true
}

// uvarint reads a minimal-form varint; non-minimal encodings (a
// redundant zero continuation byte) are rejected for canonicality.
func (d *dec) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, corruptf("bad varint")
	}
	if n > 1 && d.b[d.off+n-1] == 0 {
		return 0, corruptf("non-minimal varint")
	}
	d.off += n
	return u, nil
}

// Decode parses and validates a recording buffer. It never panics; every
// acceptance implies the buffer re-encodes byte-identically (canonical
// form). Returned slices are copies — the caller may discard or mutate
// the input freely.
func Decode(b []byte) (*Recording, error) {
	d := &dec{b: b}
	m, ok := d.bytes(4)
	if !ok || [4]byte(m) != magic {
		return nil, corruptf("bad magic")
	}
	ver, ok := d.u16()
	if !ok {
		return nil, corruptf("truncated header")
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrVersion, ver, Version)
	}
	ncols, ok := d.u16()
	if !ok {
		return nil, corruptf("truncated header")
	}
	if ncols == 0 || ncols > maxCols {
		return nil, corruptf("column count %d outside (0, %d]", ncols, maxCols)
	}
	pbits, ok1 := d.u64()
	seed, ok2 := d.u64()
	if !ok1 || !ok2 {
		return nil, corruptf("truncated header")
	}
	period := math.Float64frombits(pbits)
	if math.IsNaN(period) || math.IsInf(period, 0) || period < 0 {
		return nil, corruptf("sample period %v not a finite non-negative value", period)
	}
	schema := Schema{
		Cols:    make([]string, 0, ncols),
		PeriodS: period,
		Seed:    int64(seed),
	}
	seen := make(map[string]bool, ncols)
	for i := 0; i < int(ncols); i++ {
		nlen, ok := d.u32()
		if !ok {
			return nil, corruptf("truncated column %d name length", i)
		}
		if nlen == 0 || nlen > maxNameLen {
			return nil, corruptf("column %d name length %d outside (0, %d]", i, nlen, maxNameLen)
		}
		name, ok := d.bytes(int(nlen))
		if !ok {
			return nil, corruptf("truncated column %d name", i)
		}
		if seen[string(name)] {
			return nil, corruptf("duplicate column name %q", name)
		}
		seen[string(name)] = true
		schema.Cols = append(schema.Cols, string(name))
	}
	hashEnd := d.off
	wantHash, ok := d.bytes(sha256.Size)
	if !ok {
		return nil, corruptf("truncated schema hash")
	}
	if sha256.Sum256(b[:hashEnd]) != [sha256.Size]byte(wantHash) {
		return nil, corruptf("schema hash mismatch")
	}
	crcEnd := d.off
	hcrc, ok := d.u32()
	if !ok {
		return nil, corruptf("truncated header CRC")
	}
	if crc32.ChecksumIEEE(b[:crcEnd]) != hcrc {
		return nil, corruptf("header CRC mismatch")
	}

	rec := &Recording{Schema: schema}
	enc := newChunkEncoder()
	for ci := 0; d.remaining() > 0; ci++ {
		start := d.off
		rawLen, ok1 := d.u32()
		compLen, ok2 := d.u32()
		if !ok1 || !ok2 {
			return nil, corruptf("truncated chunk %d header", ci)
		}
		if rawLen < 4 || rawLen > maxChunkBody {
			return nil, corruptf("chunk %d raw length %d outside [4, %d]", ci, rawLen, maxChunkBody)
		}
		comp, ok := d.bytes(int(compLen))
		if !ok {
			return nil, corruptf("truncated chunk %d body (%d bytes declared, %d left)", ci, compLen, d.remaining())
		}
		crcEnd := d.off
		ccrc, ok := d.u32()
		if !ok {
			return nil, corruptf("truncated chunk %d CRC", ci)
		}
		if crc32.ChecksumIEEE(b[start:crcEnd]) != ccrc {
			return nil, corruptf("chunk %d CRC mismatch", ci)
		}
		fr := flate.NewReader(bytes.NewReader(comp))
		body, err := io.ReadAll(io.LimitReader(fr, int64(rawLen)+1))
		if cerr := fr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, corruptf("chunk %d decompress: %v", ci, err)
		}
		if len(body) != int(rawLen) {
			return nil, corruptf("chunk %d decompresses to %d bytes, declared %d", ci, len(body), rawLen)
		}
		// Canonical compression: the frame must hold exactly the bytes our
		// own compressor emits for this body, or re-encoding would diverge.
		if err := enc.recompress(body); err != nil {
			return nil, corruptf("chunk %d recompress: %v", ci, err)
		}
		if !bytes.Equal(enc.comp.Bytes(), comp) {
			return nil, corruptf("chunk %d compression not canonical", ci)
		}
		chunk, err := decodeChunkBody(body, int(ncols))
		if err != nil {
			return nil, fmt.Errorf("%w (chunk %d)", err, ci)
		}
		rec.Chunks = append(rec.Chunks, chunk)
	}
	return rec, nil
}

func decodeChunkBody(body []byte, ncols int) (Chunk, error) {
	d := &dec{b: body}
	nrows, ok := d.u32()
	if !ok {
		return Chunk{}, corruptf("truncated chunk row count")
	}
	if nrows == 0 || nrows > maxChunkRows {
		return Chunk{}, corruptf("chunk row count %d outside (0, %d]", nrows, maxChunkRows)
	}
	ch := Chunk{Rows: int(nrows), Cols: make([][]float64, ncols)}
	for c := 0; c < ncols; c++ {
		mode, ok := d.u8()
		if !ok {
			return Chunk{}, corruptf("truncated column %d mode", c)
		}
		var vals []float64
		var err error
		switch mode {
		case colModeInt:
			vals, err = decodeIntCol(d, int(nrows))
		case colModeFloat:
			vals, err = decodeFloatCol(d, int(nrows))
			if err == nil && intQualifiedCol(vals) {
				err = corruptf("float mode for integer-qualified column")
			}
		default:
			err = corruptf("unknown column mode %d", mode)
		}
		if err != nil {
			return Chunk{}, fmt.Errorf("%w (column %d)", err, c)
		}
		ch.Cols[c] = vals
	}
	if d.remaining() != 0 {
		return Chunk{}, corruptf("%d trailing bytes in chunk body", d.remaining())
	}
	return ch, nil
}

func decodeIntCol(d *dec, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	var prev, pd int64
	afterRun := false
	apply := func(term int64) error {
		i := len(out)
		var val int64
		if i == 0 {
			val = term
		} else {
			delta := term
			if i > 1 {
				delta = pd + term
			}
			if delta < -maxDeltaAbs || delta > maxDeltaAbs {
				return corruptf("delta %d exceeds ±2^54", delta)
			}
			val = prev + delta
			pd = delta
		}
		if val < -maxIntAbs || val > maxIntAbs {
			return corruptf("value %d exceeds ±2^53", val)
		}
		prev = val
		out = append(out, float64(val))
		return nil
	}
	for len(out) < n {
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if u == 0 {
			if afterRun {
				return nil, corruptf("zero run not maximal")
			}
			extra, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if extra >= uint64(n-len(out)) {
				return nil, corruptf("zero run overflows column")
			}
			for k := uint64(0); k <= extra; k++ {
				if err := apply(0); err != nil {
					return nil, err
				}
			}
			afterRun = true
			continue
		}
		afterRun = false
		term := unzigzag(u)
		if term < -maxTermAbs || term > maxTermAbs {
			return nil, corruptf("term %d exceeds ±2^55", term)
		}
		if err := apply(term); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func decodeFloatCol(d *dec, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	var prev uint64
	afterRun := false
	apply := func(u uint64) {
		bits := u
		if len(out) > 0 {
			bits = prev ^ u
		}
		prev = bits
		out = append(out, math.Float64frombits(bits))
	}
	for len(out) < n {
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if u == 0 {
			if afterRun {
				return nil, corruptf("zero run not maximal")
			}
			extra, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if extra >= uint64(n-len(out)) {
				return nil, corruptf("zero run overflows column")
			}
			for k := uint64(0); k <= extra; k++ {
				apply(0)
			}
			afterRun = true
			continue
		}
		afterRun = false
		apply(u)
	}
	return out, nil
}

// ReadFile reads and decodes a recording file.
func ReadFile(path string) (*Recording, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
