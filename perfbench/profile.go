package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"roborepair/internal/scenario"
)

// shareBuckets are the packages profile samples are charged to:
// the simulator's layers, background GC, and everything else.
var shareBuckets = []string{
	"sim", "radio", "wire", "netstack", "node", "robot", "core", "geom",
	"metrics", "scenario", "chaos", "telemetry", "ftdc", "invariant", "trace",
	"energy", "algorithm", "failure", "rng", "runtime_gc", "other",
}

const internalPrefix = "roborepair/internal/"

// bucket charges a stack (leaf first) to the nearest roborepair/internal
// package on it, so runtime work such as malloc, map operations and
// hashing counts against the layer that asked for it. Stacks with no such
// frame are background GC or "other".
func bucket(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, b := range shareBuckets {
				if b == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "runtime_gc"
		}
	}
	return "other"
}

// profiled is what the profiled runs measure: per-bucket totals from the
// two profiles, and the same totals measured without the profiles.
type profiled struct {
	cpuNs      map[string]float64 // sampled CPU nanoseconds by bucket
	cpuSamples float64
	cpu        time.Duration      // process CPU over the profiled runs (getrusage)
	allocB     map[string]float64 // estimated bytes allocated, by bucket
	allocated  uint64             // bytes allocated (runtime.MemStats)
}

// profileRuns repeats build-and-run under the CPU profiler and a denser
// allocation sampler until the deadline (at least once).
func profileRuns(cfg scenario.Config, v *verifier, deadline time.Time) (*profiled, error) {
	prevRate := runtime.MemProfileRate
	runtime.MemProfileRate = allocSampleBytes
	defer func() { runtime.MemProfileRate = prevRate }()
	before, ms0, err := allocsByBucket()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cpu0 := cpuTime()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for i := 1; ; i++ {
		t0 := time.Now()
		res, err := plainRun(cfg)
		v.record(fmt.Sprintf("profiled run %d", i), cfg.Seed, res, err)
		if time.Now().Add(time.Since(t0)).After(deadline) {
			break
		}
	}
	pprof.StopCPUProfile()
	pr := &profiled{cpu: cpuTime() - cpu0}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	pr.cpuNs = p.byBucket(1)
	pr.cpuSamples = total(p.byBucket(0))
	after, ms1, err := allocsByBucket()
	if err != nil {
		return nil, err
	}
	for b := range after {
		after[b] -= before[b]
	}
	pr.allocB = after
	pr.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	return pr, nil
}

// allocSampleBytes is the allocation profile's mean sampling interval
// during the profiled runs.
const allocSampleBytes = 4096

// plainRun builds and runs one world with no measurement around it.
func plainRun(cfg scenario.Config) (res scenario.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	w, err := scenario.New(cfg)
	if err != nil {
		return res, err
	}
	return w.Run(), nil
}

// allocsByBucket sums the allocation profile's allocated bytes by
// bucket, and reads the runtime's own total. The profile covers
// allocations up to the last completed GC, hence the collection first.
// Bytes, not objects: the profile records a 16-byte block of the tiny
// allocator once, however many objects share it, while the runtime counts
// each object, so object estimates run low where tiny allocations are
// common (by 9% on hostile-central16).
func allocsByBucket() (map[string]float64, runtime.MemStats, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, ms, fmt.Errorf("alloc profile: %w", err)
	}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, ms, fmt.Errorf("alloc profile: %w", err)
	}
	return p.byBucket(1), ms, nil
}

func total(by map[string]float64) float64 {
	var sum float64
	for _, x := range by {
		sum += x
	}
	return sum
}

// shares normalizes per-bucket totals to fractions of their sum, with
// every bucket present.
func shares(by map[string]float64) map[string]float64 {
	sum := total(by)
	out := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		if sum > 0 {
			out[b] = by[b] / sum
		} else {
			out[b] = 0
		}
	}
	return out
}

// profile is the part of a pprof protobuf the benchmark reads: samples
// and the function names of their stacks.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]uint64   // function id → string table index
	strs     []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []uint64
}

// byBucket sums value i of every sample by the bucket of its stack.
func (p *profile) byBucket(i int) map[string]float64 {
	out := map[string]float64{}
	var stack []string
	for _, s := range p.samples {
		if i >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if idx := p.funcName[fn]; idx < uint64(len(p.strs)) {
					stack = append(stack, p.strs[idx])
				}
			}
		}
		out[bucket(stack)] += float64(s.values[i])
	}
	return out
}

// decodeProfile reads a gzipped pprof protobuf (profile.proto): fields
// 2 sample, 4 location, 5 function and 6 string_table.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample: 1 location_id, 2 value
			var s profSample
			err := eachField(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, data)
				case 2:
					s.values, err = appendVarints(s.values, v, data)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location: 1 id, 4 line (Line: 1 function_id)
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function: 1 id, 2 name
			var id, name uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds
// varint and fixed-width values, data the bytes of length-delimited ones
// (nil for the other wire types).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
