package ftdc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roborepair/internal/checkpoint"
)

// testRecording builds a recording exercising both column modes, zero
// runs, multiple chunks, and a short tail chunk.
func testRecording() *Recording {
	schema := Schema{
		Cols:    []string{"t_s", "counter", "flat", "noise"},
		PeriodS: 250,
		Seed:    42,
	}
	mk := func(rows, base int) Chunk {
		ch := Chunk{Rows: rows, Cols: make([][]float64, 4)}
		for c := range ch.Cols {
			ch.Cols[c] = make([]float64, rows)
		}
		for i := 0; i < rows; i++ {
			n := base + i
			ch.Cols[0][i] = float64(n) * 250
			ch.Cols[1][i] = float64(n * n / 7) // smooth counter
			ch.Cols[2][i] = 3                  // constant
			ch.Cols[3][i] = math.Sin(float64(n)) * 1e-3
		}
		return ch
	}
	return &Recording{
		Schema: schema,
		Chunks: []Chunk{mk(120, 0), mk(120, 120), mk(17, 240)},
	}
}

func encodeT(t *testing.T, r *Recording) []byte {
	t.Helper()
	b, err := Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	want := testRecording()
	b := encodeT(t, want)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Schema.PeriodS != want.Schema.PeriodS || got.Schema.Seed != want.Schema.Seed {
		t.Fatalf("schema mismatch: %+v vs %+v", got.Schema, want.Schema)
	}
	if len(got.Chunks) != len(want.Chunks) {
		t.Fatalf("chunks: got %d want %d", len(got.Chunks), len(want.Chunks))
	}
	for i := range want.Chunks {
		for c := range want.Chunks[i].Cols {
			wv, gv := want.Chunks[i].Cols[c], got.Chunks[i].Cols[c]
			for j := range wv {
				if wv[j] != gv[j] {
					t.Fatalf("chunk %d col %d row %d: got %v want %v", i, c, j, gv[j], wv[j])
				}
			}
		}
	}
	re, err := Encode(got)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(re, b) {
		t.Fatal("decoded recording does not re-encode byte-identically")
	}
}

func TestRoundTripFloatEdgeValues(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5e300,
		float64(maxIntAbs), float64(maxIntAbs) * 2, // second forces float mode
	}
	r := &Recording{
		Schema: Schema{Cols: []string{"edge"}},
		Chunks: []Chunk{{Rows: len(vals), Cols: [][]float64{vals}}},
	}
	b := encodeT(t, r)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i, v := range got.Chunks[0].Cols[0] {
		if math.Float64bits(v) != math.Float64bits(vals[i]) {
			t.Fatalf("row %d: got bits %x want %x", i, math.Float64bits(v), math.Float64bits(vals[i]))
		}
	}
	re, _ := Encode(got)
	if !bytes.Equal(re, b) {
		t.Fatal("float edge recording does not re-encode byte-identically")
	}
}

func TestIntModeChosenForIntegralColumns(t *testing.T) {
	// A flat integer column in a 1000-row chunk must compress to a
	// handful of bytes: int mode + zero-RLE + DEFLATE.
	rows := 1000
	col := make([]float64, rows)
	tcol := make([]float64, rows)
	for i := range col {
		col[i] = 7
		tcol[i] = float64(i) * 250
	}
	r := &Recording{
		Schema: Schema{Cols: []string{"t_s", "flat"}},
		Chunks: []Chunk{{Rows: rows, Cols: [][]float64{tcol, col}}},
	}
	b := encodeT(t, r)
	if len(b) > 200 {
		t.Fatalf("1000 flat+ramp samples took %d bytes, want ≤ 200", len(b))
	}
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Schema
	}{
		{"no columns", Schema{}},
		{"empty name", Schema{Cols: []string{""}}},
		{"long name", Schema{Cols: []string{strings.Repeat("x", 256)}}},
		{"duplicate", Schema{Cols: []string{"a", "a"}}},
		{"nan period", Schema{Cols: []string{"a"}, PeriodS: math.NaN()}},
		{"negative period", Schema{Cols: []string{"a"}, PeriodS: -1}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		if _, err := Encode(&Recording{Schema: tc.s}); err == nil {
			t.Errorf("%s: Encode accepted", tc.name)
		}
	}
	ok := Schema{Cols: []string{"a", "b"}, PeriodS: 250, Seed: -1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
}

func TestEncodeRejectsMalformedChunks(t *testing.T) {
	s := Schema{Cols: []string{"a", "b"}}
	cases := []struct {
		name string
		ch   Chunk
	}{
		{"zero rows", Chunk{Rows: 0, Cols: [][]float64{{}, {}}}},
		{"too many rows", Chunk{Rows: maxChunkRows + 1, Cols: [][]float64{{}, {}}}},
		{"column count", Chunk{Rows: 1, Cols: [][]float64{{1}}}},
		{"ragged", Chunk{Rows: 2, Cols: [][]float64{{1, 2}, {1}}}},
	}
	for _, tc := range cases {
		if _, err := Encode(&Recording{Schema: s, Chunks: []Chunk{tc.ch}}); err == nil {
			t.Errorf("%s: Encode accepted", tc.name)
		}
	}
}

// corrupt returns a copy of b with the byte at i XORed with mask.
func corrupt(b []byte, i int, mask byte) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= mask
	return out
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b := encodeT(t, testRecording())
	headerLen := len(testRecording().Schema.header())
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"bad magic", corrupt(b, 0, 0xff)},
		{"bad version", corrupt(b, 4, 0x04)},
		{"bad ncols", corrupt(b, 6, 0xff)},
		{"flipped name byte", corrupt(b, 26, 0x01)},
		{"flipped hash byte", corrupt(b, headerLen-20, 0x01)},
		{"flipped header crc", corrupt(b, headerLen-1, 0x01)},
		{"flipped chunk length", corrupt(b, headerLen+1, 0x01)},
		{"flipped chunk body", corrupt(b, headerLen+10, 0x01)},
		{"flipped last byte", corrupt(b, len(b)-1, 0x01)},
		{"truncated header", b[:10]},
		{"truncated chunk", b[:headerLen+5]},
		{"trailing byte", append(append([]byte(nil), b...), 0)},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.b); err == nil {
			t.Errorf("%s: Decode accepted", tc.name)
		}
	}
}

func TestDecodeVersionGate(t *testing.T) {
	b := encodeT(t, testRecording())
	bad := append([]byte(nil), b...)
	binary.LittleEndian.PutUint16(bad[4:], Version+1)
	// Recompute nothing: the version flip must fail before any hash check
	// reports plain corruption.
	_, err := Decode(bad)
	if err == nil {
		t.Fatal("decoder accepted future version")
	}
}

// rawChunkFrame frames an already-built body exactly as the encoder
// would, letting tests smuggle non-canonical bodies past the CRC.
func rawChunkFrame(t *testing.T, body []byte) []byte {
	t.Helper()
	enc := newChunkEncoder()
	if err := enc.recompress(body); err != nil {
		t.Fatalf("recompress: %v", err)
	}
	var dst []byte
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(enc.comp.Len()))
	dst = append(dst, enc.comp.Bytes()...)
	return binary.LittleEndian.AppendUint32(dst, checksum(dst))
}

func checksum(b []byte) uint32 {
	return crc32.ChecksumIEEE(b)
}

func TestDecodeRejectsNonCanonicalBodies(t *testing.T) {
	schema := Schema{Cols: []string{"a"}}
	header := schema.header()
	frame := func(body ...byte) []byte {
		return append(append([]byte(nil), header...), rawChunkFrame(t, body)...)
	}
	nrows := func(n uint32, rest ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), rest...)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		// 1 row, int mode, value 1 encoded with a redundant continuation.
		{"non-minimal varint", frame(nrows(1, colModeInt, 0x82, 0x00)...)},
		// 2 rows, int mode, two separate single-zero runs.
		{"split zero run", frame(nrows(2, colModeInt, 0, 0, 0, 0)...)},
		// 1 row, int mode, zero run longer than the column.
		{"overlong zero run", frame(nrows(1, colModeInt, 0, 1)...)},
		// 1 row, float mode, value +1 — integer-qualified, must be int mode.
		{"float mode for int", frame(nrows(1, colModeFloat, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xf0, 0x3f)...)},
		// 1 row, int mode, trailing byte inside the body.
		{"body trailing bytes", frame(nrows(1, colModeInt, 0x02, 0x07)...)},
		// unknown column mode
		{"unknown mode", frame(nrows(1, 9, 0x02)...)},
		// zero rows
		{"zero rows", frame(nrows(0)...)},
		// int value beyond 2^53: zigzag(2^53+1)
		{"int overflow", frame(append(nrows(1, colModeInt), binary.AppendUvarint(nil, zigzag(maxIntAbs+1))...)...)},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.b); err == nil {
			t.Errorf("%s: Decode accepted", tc.name)
		}
	}
}

func TestDecodeRejectsNonCanonicalCompression(t *testing.T) {
	// Frame a valid body with stored (level-0) DEFLATE instead of the
	// canonical level: decompresses fine, but is not what Encode emits.
	schema := Schema{Cols: []string{"a"}}
	body := append(binary.LittleEndian.AppendUint32(nil, 1), colModeInt, 0x02)
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.NoCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(body)
	fw.Close()
	var frame []byte
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(comp.Len()))
	frame = append(frame, comp.Bytes()...)
	frame = binary.LittleEndian.AppendUint32(frame, checksum(frame))
	b := append(append([]byte(nil), schema.header()...), frame...)
	if _, err := Decode(b); err == nil {
		t.Fatal("Decode accepted non-canonical compression")
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ftdc")
	want := testRecording()
	b, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFileAtomic(path, b); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: got %d want %d", got.NumRows(), want.NumRows())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestRecordingAccessors(t *testing.T) {
	r := testRecording()
	if n := r.NumRows(); n != 257 {
		t.Fatalf("NumRows = %d, want 257", n)
	}
	if i := r.ColumnIndex("counter"); i != 1 {
		t.Fatalf("ColumnIndex(counter) = %d", i)
	}
	if r.Column("nope") != nil {
		t.Fatal("Column(nope) non-nil")
	}
	col := r.Column("t_s")
	if len(col) != 257 || col[0] != 0 || col[256] != 256*250 {
		t.Fatalf("Column(t_s) wrong: len=%d first=%v last=%v", len(col), col[0], col[256])
	}
	rows := 0
	r.EachRow(func(i int, row []float64) {
		if i != rows {
			t.Fatalf("EachRow index %d, want %d", i, rows)
		}
		if row[0] != float64(i)*250 {
			t.Fatalf("row %d t_s = %v", i, row[0])
		}
		rows++
	})
	if rows != 257 {
		t.Fatalf("EachRow visited %d rows", rows)
	}
}
