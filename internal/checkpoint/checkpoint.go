// Package checkpoint defines the versioned, CRC-guarded binary snapshot
// format for full simulator state, and its defensive decoder.
//
// A snapshot is a header (format version, run seed, checkpoint time, and
// the complete scenario configuration as canonical JSON plus its SHA-256)
// followed by typed sections, each individually CRC-32-guarded. Sections
// carry the serialized dynamic state of one subsystem — kernel event
// stamps, RNG stream positions, sensor/robot/manager state vectors, the
// radio grid, chaos windows, flight-recorder chunks — in the repo's wire
// conventions: fixed-width little-endian scalars, float64 bit patterns,
// strict 0/1 booleans, u32-length-prefixed byte strings.
//
// Restore does not deserialize closures (event callbacks cannot be
// serialized): the scenario layer rebuilds the world from the embedded
// config and deterministically replays to the checkpoint time, then
// re-serializes every section and byte-compares it against the snapshot.
// The sections are therefore both the verification oracle — any config
// drift, version skew, or undetected corruption fails the restore — and a
// self-contained record of the simulator's state for debugging tools.
//
// The decoder is defensive: it never panics, rejects truncated or
// bit-flipped input (magic, version gate, per-section CRCs, config hash),
// and accepts only canonical encodings — every accepted buffer re-encodes
// to identical bytes (FuzzSnapshotDecode locks both properties).
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Version is the current snapshot format version. Decode rejects other
// versions: snapshot state mirrors internal struct layouts, so there is no
// cross-version compatibility promise — the gate turns skew into a clean
// error instead of a garbage restore.
const Version uint16 = 2

// magic identifies a snapshot file ("RoboRepair SNapshot").
var magic = [4]byte{'R', 'R', 'S', 'N'}

// SectionID names one serialized subsystem.
type SectionID uint16

// Section IDs. The explicit values are the format contract: never
// renumber, only extend.
const (
	SecKernel    SectionID = 1  // scheduler clock, counters, pending event stamps
	SecRNG       SectionID = 2  // named stream positions
	SecCounters  SectionID = 3  // scenario-level counters and ledgers
	SecSensors   SectionID = 4  // per-sensor state vectors, ID-ascending
	SecRobots    SectionID = 5  // per-robot state vectors, ID-ascending
	SecManager   SectionID = 6  // central manager state (empty when absent)
	SecRadio     SectionID = 7  // medium station table: active flags, positions
	SecChaos     SectionID = 8  // fault-plan dynamic state (corrupter capture ring)
	SecMetrics   SectionID = 9  // metrics registry counters and accumulators
	SecTelemetry SectionID = 10 // telemetry histograms
	SecFTDC      SectionID = 11 // flight recorder chunks and pending sample tail
)

// String names the section for diagnostics.
func (id SectionID) String() string {
	switch id {
	case SecKernel:
		return "kernel"
	case SecRNG:
		return "rng"
	case SecCounters:
		return "counters"
	case SecSensors:
		return "sensors"
	case SecRobots:
		return "robots"
	case SecManager:
		return "manager"
	case SecRadio:
		return "radio"
	case SecChaos:
		return "chaos"
	case SecMetrics:
		return "metrics"
	case SecTelemetry:
		return "telemetry"
	case SecFTDC:
		return "ftdc"
	default:
		return fmt.Sprintf("section(%d)", uint16(id))
	}
}

// Section is one CRC-guarded state blob.
type Section struct {
	ID      SectionID
	Payload []byte
}

// Snapshot is the in-memory form of one checkpoint.
type Snapshot struct {
	// Seed is the run seed (duplicated from the config for cheap access).
	Seed int64
	// T is the simulated time the snapshot was taken at.
	T float64
	// ConfigJSON is the complete scenario configuration, canonical JSON.
	ConfigJSON []byte
	// Sections holds the per-subsystem state, in ascending SectionID order.
	Sections []Section
}

// ConfigHash returns the SHA-256 of a canonical config JSON — the content
// hash used by the snapshot header and the sweep resume journal.
func ConfigHash(configJSON []byte) [sha256.Size]byte {
	return sha256.Sum256(configJSON)
}

// Limits that bound what the defensive decoder will allocate before the
// CRCs have vouched for the input.
const (
	maxSections   = 64
	maxConfigJSON = 1 << 20 // 1 MiB of config JSON is already absurd
)

// Decode errors. ErrCorrupt covers every structural or integrity failure;
// callers gate on it to count rejected snapshots.
var (
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion marks a structurally plausible snapshot from another
	// format version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Encode serializes the snapshot. It errors on malformed inputs (sections
// out of order, duplicate or zero IDs, oversized blobs) rather than
// emitting a buffer its own decoder would reject.
func Encode(s *Snapshot) ([]byte, error) {
	if len(s.ConfigJSON) == 0 || len(s.ConfigJSON) > maxConfigJSON {
		return nil, fmt.Errorf("checkpoint: config JSON length %d outside (0, %d]", len(s.ConfigJSON), maxConfigJSON)
	}
	if len(s.Sections) == 0 || len(s.Sections) > maxSections {
		return nil, fmt.Errorf("checkpoint: section count %d outside (0, %d]", len(s.Sections), maxSections)
	}
	if math.IsNaN(s.T) || math.IsInf(s.T, 0) || s.T < 0 {
		return nil, fmt.Errorf("checkpoint: snapshot time %v not a finite non-negative value", s.T)
	}
	b := make([]byte, 0, 256+len(s.ConfigJSON))
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Sections)))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Seed))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.T))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.ConfigJSON)))
	b = append(b, s.ConfigJSON...)
	hash := ConfigHash(s.ConfigJSON)
	b = append(b, hash[:]...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))

	last := SectionID(0)
	for _, sec := range s.Sections {
		if sec.ID <= last {
			return nil, fmt.Errorf("checkpoint: section %v out of ascending order (after %v)", sec.ID, last)
		}
		last = sec.ID
		if len(sec.Payload) > math.MaxUint32 {
			return nil, fmt.Errorf("checkpoint: section %v payload too large", sec.ID)
		}
		start := len(b)
		b = binary.LittleEndian.AppendUint16(b, uint16(sec.ID))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sec.Payload)))
		b = append(b, sec.Payload...)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
	}
	return b, nil
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

// Decode parses and validates a snapshot buffer. It never panics; every
// acceptance implies the buffer re-encodes byte-identically (canonical
// form). Returned slices are copies — the caller may discard or mutate the
// input freely.
func Decode(b []byte) (*Snapshot, error) {
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
	nsec, ok := d.u16()
	if !ok {
		return nil, corruptf("truncated header")
	}
	if nsec == 0 || nsec > maxSections {
		return nil, corruptf("section count %d outside (0, %d]", nsec, maxSections)
	}
	seed, ok1 := d.u64()
	tbits, ok2 := d.u64()
	clen, ok3 := d.u32()
	if !ok1 || !ok2 || !ok3 {
		return nil, corruptf("truncated header")
	}
	t := math.Float64frombits(tbits)
	if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return nil, corruptf("snapshot time %v not a finite non-negative value", t)
	}
	if clen == 0 || clen > maxConfigJSON {
		return nil, corruptf("config JSON length %d outside (0, %d]", clen, maxConfigJSON)
	}
	cfg, ok := d.bytes(int(clen))
	if !ok {
		return nil, corruptf("truncated config JSON")
	}
	wantHash, ok := d.bytes(sha256.Size)
	if !ok {
		return nil, corruptf("truncated config hash")
	}
	if ConfigHash(cfg) != [sha256.Size]byte(wantHash) {
		return nil, corruptf("config hash mismatch")
	}
	headerEnd := d.off
	hcrc, ok := d.u32()
	if !ok {
		return nil, corruptf("truncated header CRC")
	}
	if crc32.ChecksumIEEE(b[:headerEnd]) != hcrc {
		return nil, corruptf("header CRC mismatch")
	}

	snap := &Snapshot{
		Seed:       int64(seed),
		T:          t,
		ConfigJSON: append([]byte(nil), cfg...),
		Sections:   make([]Section, 0, nsec),
	}
	last := SectionID(0)
	for i := 0; i < int(nsec); i++ {
		start := d.off
		id16, ok := d.u16()
		if !ok {
			return nil, corruptf("truncated section %d header", i)
		}
		id := SectionID(id16)
		if id <= last {
			return nil, corruptf("section %v out of ascending order", id)
		}
		last = id
		plen, ok := d.u32()
		if !ok {
			return nil, corruptf("truncated section %v length", id)
		}
		payload, ok := d.bytes(int(plen))
		if !ok {
			return nil, corruptf("truncated section %v payload (%d bytes declared, %d left)", id, plen, d.remaining())
		}
		bodyEnd := d.off
		scrc, ok := d.u32()
		if !ok {
			return nil, corruptf("truncated section %v CRC", id)
		}
		if crc32.ChecksumIEEE(b[start:bodyEnd]) != scrc {
			return nil, corruptf("section %v CRC mismatch", id)
		}
		snap.Sections = append(snap.Sections, Section{ID: id, Payload: append([]byte(nil), payload...)})
	}
	if d.remaining() != 0 {
		return nil, corruptf("%d trailing bytes after last section", d.remaining())
	}
	return snap, nil
}

// WriteFile atomically writes the snapshot to path (temp file + rename),
// so a crash mid-write never leaves a torn snapshot under the final name.
func WriteFile(path string, s *Snapshot) error {
	b, err := Encode(s)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, b)
}

// WriteFileAtomic writes b to path through a temp file in the same
// directory: write, sync, close, then rename over path. A crash mid-write
// leaves the previous file under path intact.
func WriteFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile reads and decodes a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
