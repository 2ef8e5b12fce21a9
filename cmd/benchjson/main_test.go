package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: roborepair
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorThroughput 	       2	 314398613 ns/op	      3181 sim-s/s	21906180 B/op	  282108 allocs/op
BenchmarkSchedulerChurn-8    	 1000000	       151.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	roborepair	0.950s
`

func parseSample(t *testing.T) *Report {
	t.Helper()
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseBenchOutput(t *testing.T) {
	rep := parseSample(t)
	if rep.GoOS != "linux" || rep.Benchmarks[0].Pkg != "roborepair" {
		t.Fatalf("header fields: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSimulatorThroughput" || b.Iterations != 2 {
		t.Fatalf("first bench = %+v", b)
	}
	for unit, want := range map[string]float64{
		"ns/op": 314398613, "sim-s/s": 3181, "B/op": 21906180, "allocs/op": 282108,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Fatalf("%s = %g, want %g", unit, got, want)
		}
	}
}

func TestFindToleratesProcsSuffix(t *testing.T) {
	rep := parseSample(t)
	if find(rep.Benchmarks, "BenchmarkSchedulerChurn") == nil {
		t.Fatal("find missed the -8 suffixed benchmark")
	}
	if find(rep.Benchmarks, "BenchmarkScheduler") != nil {
		t.Fatal("find matched a prefix that is not the full name")
	}
	if find(rep.Benchmarks, "BenchmarkNope") != nil {
		t.Fatal("find invented a benchmark")
	}
}

func TestCeilingParseAndBreach(t *testing.T) {
	var cs ceilingList
	if err := cs.Set("BenchmarkSimulatorThroughput=allocs/op<=279000"); err != nil {
		t.Fatal(err)
	}
	if err := cs.Set("garbage"); err == nil {
		t.Fatal("malformed ceiling accepted")
	}
	if cs[0].bench != "BenchmarkSimulatorThroughput" || cs[0].metric != "allocs/op" || cs[0].max != 279000 {
		t.Fatalf("parsed ceiling = %+v", cs[0])
	}
	rep := parseSample(t)
	b := find(rep.Benchmarks, cs[0].bench)
	if b == nil {
		t.Fatal("benchmark not found")
	}
	if got := b.Metrics[cs[0].metric]; got <= cs[0].max {
		t.Fatalf("sample should breach the 279000 ceiling, got %g", got)
	}
}

// TestPackageStampedPerBenchmark feeds the output of two packages run in
// one go test invocation: each benchmark carries the package whose `pkg:`
// header precedes it, not the last header seen.
func TestPackageStampedPerBenchmark(t *testing.T) {
	const twoPkgs = `goos: linux
goarch: amd64
pkg: roborepair/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSchedulerChurn-2    	 1000000	       151.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedulerHotLoop-2  	 1000000	        98.1 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	roborepair/internal/sim	0.950s
goos: linux
goarch: amd64
pkg: roborepair/internal/radio
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMediumBroadcast-2   	 1000000	       402.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	roborepair/internal/radio	0.612s
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(twoPkgs)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"BenchmarkSchedulerChurn-2":   "roborepair/internal/sim",
		"BenchmarkSchedulerHotLoop-2": "roborepair/internal/sim",
		"BenchmarkMediumBroadcast-2":  "roborepair/internal/radio",
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for _, b := range rep.Benchmarks {
		if b.Pkg != want[b.Name] {
			t.Errorf("%s stamped with package %q, want %q", b.Name, b.Pkg, want[b.Name])
		}
	}
}
