package ftdc

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

func newTestRecorder(t *testing.T, cfg Config) *Recorder {
	t.Helper()
	r, err := NewRecorder(Schema{Cols: []string{"t_s", "count"}, PeriodS: 250, Seed: 7}, cfg)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	return r
}

func appendN(r *Recorder, n, from int) {
	row := make([]float64, 2)
	for i := 0; i < n; i++ {
		row[0] = float64(from+i) * 250
		row[1] = float64((from + i) * 3)
		r.Append(row)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := newTestRecorder(t, Config{ChunkRows: 100})
	appendN(r, 257, 0)
	if r.Rows() != 257 {
		t.Fatalf("Rows = %d", r.Rows())
	}
	if len(r.chunks) != 2 {
		t.Fatalf("RetainedChunks = %d, want 2 (57 pending)", len(r.chunks))
	}
	b, err := r.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	rec, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if rec.NumRows() != 257 {
		t.Fatalf("decoded rows = %d", rec.NumRows())
	}
	count := rec.Column("count")
	for i, v := range count {
		if v != float64(i*3) {
			t.Fatalf("count[%d] = %v", i, v)
		}
	}
	if rec.Schema.Seed != 7 || rec.Schema.PeriodS != 250 {
		t.Fatalf("schema: %+v", rec.Schema)
	}
	view, err := r.Recording()
	if err != nil {
		t.Fatalf("Recording: %v", err)
	}
	if !reflect.DeepEqual(view, rec) {
		t.Fatal("Recording() differs from Decode(Bytes())")
	}
}

func TestRecorderBytesIsNonMutating(t *testing.T) {
	r := newTestRecorder(t, Config{ChunkRows: 100})
	appendN(r, 150, 0)
	b1, err := r.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two Bytes() calls differ")
	}
	// Recording continues seamlessly after a capture.
	appendN(r, 50, 150)
	b3, err := r.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Decode(b3)
	if err != nil {
		t.Fatalf("Decode after continue: %v", err)
	}
	if rec.NumRows() != 200 {
		t.Fatalf("rows after continue = %d", rec.NumRows())
	}
}

func TestRecorderBlackBoxRetention(t *testing.T) {
	r := newTestRecorder(t, Config{ChunkRows: 10, KeepChunks: 3})
	appendN(r, 95, 0)
	if len(r.chunks) != 3 {
		t.Fatalf("RetainedChunks = %d, want 3", len(r.chunks))
	}
	if r.EvictedChunks() != 6 || r.EvictedRows() != 60 {
		t.Fatalf("evicted %d chunks / %d rows, want 6 / 60", r.EvictedChunks(), r.EvictedRows())
	}
	b, err := r.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// Last 3 full chunks (rows 60..89) plus the 5 pending samples.
	if rec.NumRows() != 35 {
		t.Fatalf("retained rows = %d, want 35", rec.NumRows())
	}
	ts := rec.Column("t_s")
	if ts[0] != 60*250 || ts[len(ts)-1] != 94*250 {
		t.Fatalf("retained window [%v, %v]", ts[0], ts[len(ts)-1])
	}
}

func TestRecorderAppendStateNilSafe(t *testing.T) {
	var nilRec *Recorder
	if got := nilRec.AppendState(nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("nil AppendState = %v", got)
	}
	r := newTestRecorder(t, Config{ChunkRows: 10})
	s0 := r.AppendState(nil)
	if len(s0) == 0 || s0[0] != 1 {
		t.Fatalf("present marker missing: %v", s0)
	}
	appendN(r, 1, 0)
	s1 := r.AppendState(nil)
	if bytes.Equal(s0, s1) {
		t.Fatal("AppendState unchanged after a sample")
	}
	appendN(r, 10, 1) // cross a chunk boundary
	s2 := r.AppendState(nil)
	if bytes.Equal(s1, s2) {
		t.Fatal("AppendState unchanged after a chunk flush")
	}
}

func TestRecorderAppendArityPanics(t *testing.T) {
	r := newTestRecorder(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong arity did not panic")
		}
	}()
	r.Append([]float64{1})
}

func TestRecorderSteadyStateAllocs(t *testing.T) {
	r := newTestRecorder(t, Config{ChunkRows: maxChunkRows})
	row := []float64{0, 0}
	n := 0
	allocs := testing.AllocsPerRun(10000, func() {
		row[0] = float64(n) * 250
		row[1] = float64(n)
		r.Append(row)
		n++
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v per op in steady state, want 0", allocs)
	}
}

// TestRecorderBuildsEncoderLazily checks that the DEFLATE writer is built
// only when a chunk is sealed: a recorder whose samples all sit in the
// unsealed tail renders them with a temporary writer and keeps none, and
// its bytes equal those rendered by a writer that encoded a chunk before.
func TestRecorderBuildsEncoderLazily(t *testing.T) {
	r := newTestRecorder(t, Config{ChunkRows: 10})
	appendN(r, 7, 0)
	rec, err := r.Recording()
	if err != nil {
		t.Fatalf("Recording: %v", err)
	}
	if rec.NumRows() != 7 {
		t.Fatalf("rows = %d, want 7", rec.NumRows())
	}
	if r.enc != nil {
		t.Fatal("a recorder that sealed no chunk holds an encoder after Recording")
	}
	lazy, err := r.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	warm := newTestRecorder(t, Config{ChunkRows: 10})
	warm.enc = newChunkEncoder()
	if _, err := warm.enc.appendChunk(nil, [][]float64{{1e9}, {-3}}, 1); err != nil {
		t.Fatal(err)
	}
	appendN(warm, 7, 0)
	if eager, err := warm.Bytes(); err != nil || !bytes.Equal(lazy, eager) {
		t.Fatalf("temporary writer's bytes differ from a kept writer's (err %v)", err)
	}
	appendN(r, 3, 7)
	if r.enc == nil {
		t.Fatal("sealing a chunk left the recorder without an encoder")
	}
}

func TestRecorderWriteFile(t *testing.T) {
	r := newTestRecorder(t, Config{ChunkRows: 10})
	appendN(r, 25, 0)
	path := filepath.Join(t.TempDir(), "rec.ftdc")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	rec, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if rec.NumRows() != 25 {
		t.Fatalf("rows = %d", rec.NumRows())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SamplePeriodS: -1},
		{ChunkRows: -1},
		{ChunkRows: maxChunkRows + 1},
		{KeepChunks: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	d := Config{Enabled: true}.WithDefaults()
	if d.SamplePeriodS != 250 || d.ChunkRows != 120 {
		t.Fatalf("defaults: %+v", d)
	}
	if z := (Config{}).WithDefaults(); z != (Config{}) {
		t.Fatalf("disabled config gained defaults: %+v", z)
	}
}
