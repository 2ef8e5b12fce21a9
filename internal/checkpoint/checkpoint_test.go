package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Seed:       -42,
		T:          1234.5,
		ConfigJSON: []byte(`{"seed":-42,"simTime":3600}`),
		Sections: []Section{
			{ID: SecKernel, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{ID: SecRNG, Payload: []byte("rng-state")},
			{ID: SecSensors, Payload: nil}, // empty payloads are legal
			{ID: SecTelemetry, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	b, err := Encode(want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Seed != want.Seed || got.T != want.T {
		t.Fatalf("header round-trip: got seed=%d t=%v, want seed=%d t=%v", got.Seed, got.T, want.Seed, want.T)
	}
	if !bytes.Equal(got.ConfigJSON, want.ConfigJSON) {
		t.Fatalf("config JSON round-trip mismatch")
	}
	if len(got.Sections) != len(want.Sections) {
		t.Fatalf("section count %d, want %d", len(got.Sections), len(want.Sections))
	}
	for i := range want.Sections {
		if got.Sections[i].ID != want.Sections[i].ID {
			t.Fatalf("section %d id %v, want %v", i, got.Sections[i].ID, want.Sections[i].ID)
		}
		if !bytes.Equal(got.Sections[i].Payload, want.Sections[i].Payload) {
			t.Fatalf("section %v payload mismatch", got.Sections[i].ID)
		}
	}

	// Canonical: re-encoding the decoded snapshot is byte-identical.
	b2, err := Encode(got)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-encode not byte-identical")
	}
}

// TestTruncationAtEveryBoundary: every strict prefix of a valid snapshot
// must be cleanly rejected, never accepted and never a panic.
func TestTruncationAtEveryBoundary(t *testing.T) {
	b, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := Decode(b[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(b))
		}
	}
}

// TestBitFlips: flipping any single bit must be rejected (the CRCs cover
// every byte of the encoding).
func TestBitFlips(t *testing.T) {
	b, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := 0; i < len(b); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), b...)
			mut[i] ^= 1 << bit
			if _, err := Decode(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	b, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(append(b, 0)); err == nil {
		t.Fatalf("trailing byte accepted")
	}
}

func TestVersionGate(t *testing.T) {
	b, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Bump the version field (offset 4..6) and fix up the header CRC by
	// re-decoding: simplest is to corrupt and check for ErrVersion before
	// the CRC check. Version is validated before the header CRC, so a bare
	// field edit is enough.
	mut := append([]byte(nil), b...)
	mut[4] = 99
	_, err = Decode(mut)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
}

func TestEncodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		s    *Snapshot
	}{
		{"no config", &Snapshot{Sections: []Section{{ID: SecKernel}}}},
		{"no sections", &Snapshot{ConfigJSON: []byte("{}")}},
		{"zero section id", &Snapshot{ConfigJSON: []byte("{}"), Sections: []Section{{ID: 0}}}},
		{"duplicate ids", &Snapshot{ConfigJSON: []byte("{}"), Sections: []Section{{ID: SecRNG}, {ID: SecRNG}}}},
		{"descending ids", &Snapshot{ConfigJSON: []byte("{}"), Sections: []Section{{ID: SecRobots}, {ID: SecKernel}}}},
		{"negative time", &Snapshot{T: -1, ConfigJSON: []byte("{}"), Sections: []Section{{ID: SecKernel}}}},
	}
	for _, tc := range cases {
		if _, err := Encode(tc.s); err == nil {
			t.Errorf("%s: Encode accepted", tc.name)
		}
	}
}

func TestErrCorruptClassification(t *testing.T) {
	if _, err := Decode([]byte("not a snapshot")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage: got %v, want ErrCorrupt", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil: got %v, want ErrCorrupt", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	want := sampleSnapshot()
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.T != want.T || !bytes.Equal(got.ConfigJSON, want.ConfigJSON) {
		t.Fatalf("file round-trip mismatch")
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after WriteFile, want 1", len(ents))
	}
}

func TestSectionIDStrings(t *testing.T) {
	for id := SecKernel; id <= SecTelemetry; id++ {
		if s := id.String(); s == "" || s[:3] == "sec" {
			t.Fatalf("SectionID(%d).String() = %q", id, s)
		}
	}
	if s := SectionID(999).String(); s != "section(999)" {
		t.Fatalf("unknown id string = %q", s)
	}
}
