package ftdc

import (
	"fmt"
	"math"

	"roborepair/internal/checkpoint"
)

// Config enables and tunes the flight recorder via
// scenario.Config.Recorder. The zero value disables it entirely: no
// recorder is built, no sampler ticks, and the run's behavior and
// allocations are bit-for-bit those of an unrecorded run.
type Config struct {
	// Enabled switches the recorder on.
	Enabled bool `json:"enabled,omitempty"`
	// SamplePeriodS is the sampling cadence in simulated seconds
	// (default 250). Telemetry's time series shares this cadence.
	SamplePeriodS float64 `json:"samplePeriodS,omitempty"`
	// ChunkRows is how many samples accumulate before a chunk is
	// delta-encoded and compressed (default 120; 64 Ki max).
	ChunkRows int `json:"chunkRows,omitempty"`
	// KeepChunks, when positive, retains only the last KeepChunks encoded
	// chunks (plus the still-unencoded tail) — black-box mode, bounding
	// memory for always-on capture. 0 keeps the whole recording.
	KeepChunks int `json:"keepChunks,omitempty"`
}

// WithDefaults fills unset knobs with the documented defaults.
func (c Config) WithDefaults() Config {
	if !c.Enabled {
		return c
	}
	if c.SamplePeriodS == 0 {
		c.SamplePeriodS = 250
	}
	if c.ChunkRows == 0 {
		c.ChunkRows = 120
	}
	return c
}

// Validate reports the first invalid field. The zero (disabled) value is
// always valid.
func (c Config) Validate() error {
	if math.IsNaN(c.SamplePeriodS) || math.IsInf(c.SamplePeriodS, 0) || c.SamplePeriodS < 0 {
		return fmt.Errorf("ftdc: sample period %v not a finite non-negative value", c.SamplePeriodS)
	}
	if c.ChunkRows < 0 || c.ChunkRows > maxChunkRows {
		return fmt.Errorf("ftdc: chunk rows %d outside [0, %d]", c.ChunkRows, maxChunkRows)
	}
	if c.KeepChunks < 0 {
		return fmt.Errorf("ftdc: keep chunks %d negative", c.KeepChunks)
	}
	return nil
}

// encodedChunk is one already-framed chunk plus its row count (for
// eviction accounting).
type encodedChunk struct {
	frame []byte
	rows  int
}

// Recorder accumulates fixed-interval samples and encodes them into the
// recording format incrementally. Append is allocation-free in the steady
// state: column buffers are preallocated to the chunk size and the
// DEFLATE writer (~788 KiB) is built when the first chunk is sealed and
// reused after, so the only per-chunk cost is the encoded frame itself (a
// few hundred bytes every ChunkRows samples). A recording that never
// seals a chunk never holds the writer.
//
// The recorder is not safe for concurrent use — like the rest of the
// simulator it lives on one goroutine.
type Recorder struct {
	schema    Schema
	header    []byte
	chunkRows int
	keep      int

	cols  [][]float64 // active chunk buffers, cap chunkRows each
	rows  int         // samples in the active chunk
	total int         // samples ever appended

	chunks        []encodedChunk
	evictedChunks int
	evictedRows   int

	enc *chunkEncoder // nil until the first chunk is sealed
	err error         // first encode failure, sticky (see Err)
}

// NewRecorder builds a recorder for the given schema. cfg's zero knobs
// take their defaults; cfg.Enabled is ignored (constructing a recorder is
// the enable).
func NewRecorder(schema Schema, cfg Config) (*Recorder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Enabled = true
	cfg = cfg.WithDefaults()
	r := &Recorder{
		schema:    schema,
		header:    schema.header(),
		chunkRows: cfg.ChunkRows,
		keep:      cfg.KeepChunks,
		cols:      make([][]float64, len(schema.Cols)),
	}
	for i := range r.cols {
		r.cols[i] = make([]float64, 0, r.chunkRows)
	}
	return r, nil
}

// Append records one sample. vals must have exactly one value per schema
// column; anything else is a programming error and panics.
func (r *Recorder) Append(vals []float64) {
	if len(vals) != len(r.schema.Cols) {
		panic(fmt.Sprintf("ftdc: Append got %d values for %d columns", len(vals), len(r.schema.Cols)))
	}
	for c, v := range vals {
		r.cols[c] = append(r.cols[c], v)
	}
	r.rows++
	r.total++
	if r.rows >= r.chunkRows {
		r.flush()
	}
}

// flush encodes the active chunk and resets the buffers, evicting the
// oldest retained chunk in black-box mode.
func (r *Recorder) flush() {
	if r.rows == 0 {
		return
	}
	if r.enc == nil {
		r.enc = newChunkEncoder()
	}
	frame, err := r.enc.appendChunk(nil, r.cols, r.rows)
	if err != nil {
		if r.err == nil {
			r.err = err
		}
	} else {
		r.chunks = append(r.chunks, encodedChunk{frame: frame, rows: r.rows})
		if r.keep > 0 && len(r.chunks) > r.keep {
			drop := len(r.chunks) - r.keep
			for _, ch := range r.chunks[:drop] {
				r.evictedChunks++
				r.evictedRows += ch.rows
			}
			copy(r.chunks, r.chunks[drop:])
			r.chunks = r.chunks[:r.keep]
		}
	}
	for c := range r.cols {
		r.cols[c] = r.cols[c][:0]
	}
	r.rows = 0
}

// Schema returns the recorder's schema.
func (r *Recorder) Schema() Schema { return r.schema }

// Rows returns how many samples were ever appended, evicted ones
// included.
func (r *Recorder) Rows() int { return r.total }

// EvictedChunks returns how many encoded chunks black-box retention has
// dropped.
func (r *Recorder) EvictedChunks() int { return r.evictedChunks }

// EvictedRows returns how many samples were dropped with evicted chunks.
func (r *Recorder) EvictedRows() int { return r.evictedRows }

// Err returns the first chunk-encoding failure, if any. A failed chunk is
// dropped from the recording but sampling continues.
func (r *Recorder) Err() error { return r.err }

// Bytes renders the recording: header, retained chunks, and the active
// partial chunk as a final short chunk. The recorder is not perturbed —
// pending samples stay pending and recording can continue. A recorder
// that has sealed no chunk yet encodes the tail with a temporary writer
// and does not keep it.
func (r *Recorder) Bytes() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	n := len(r.header)
	for _, ch := range r.chunks {
		n += len(ch.frame)
	}
	out := make([]byte, 0, n+64)
	out = append(out, r.header...)
	for _, ch := range r.chunks {
		out = append(out, ch.frame...)
	}
	if r.rows > 0 {
		enc := r.enc
		if enc == nil {
			enc = newChunkEncoder()
		}
		var err error
		out, err = enc.appendChunk(out, r.cols, r.rows)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Recording decodes the capture so far (Bytes, then Decode): the
// time-series view every exporter reads.
func (r *Recorder) Recording() (*Recording, error) {
	b, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// WriteFile atomically writes the recording to path (temp file, sync,
// rename — the checkpoint write pattern).
func (r *Recorder) WriteFile(path string) error {
	b, err := r.Bytes()
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, b)
}

// AppendState serializes the recorder's dynamic state for the checkpoint
// layer's byte-compare verification: totals, the retained encoded chunks,
// and the pending sample tail. Nil-safe — an absent recorder appends a
// false presence marker, keeping the section comparable across configs.
func (r *Recorder) AppendState(b []byte) []byte {
	if r == nil {
		return checkpoint.AppendBool(b, false)
	}
	b = checkpoint.AppendBool(b, true)
	b = checkpoint.AppendBytes(b, r.header)
	b = checkpoint.AppendU64(b, uint64(r.total))
	b = checkpoint.AppendU32(b, uint32(r.evictedChunks))
	b = checkpoint.AppendU32(b, uint32(r.evictedRows))
	b = checkpoint.AppendU32(b, uint32(len(r.chunks)))
	for _, ch := range r.chunks {
		b = checkpoint.AppendU32(b, uint32(ch.rows))
		b = checkpoint.AppendBytes(b, ch.frame)
	}
	b = checkpoint.AppendU32(b, uint32(r.rows))
	for _, col := range r.cols {
		for _, v := range col {
			b = checkpoint.AppendF64(b, v)
		}
	}
	return b
}
