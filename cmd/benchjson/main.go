// Command benchjson turns `go test -bench -benchmem` text output into a
// machine-readable JSON record and optionally enforces per-benchmark
// metric ceilings, so perf regressions fail the build instead of rotting
// in a log.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH.json
//	go test -run '^$' -bench Throughput -benchmem . | benchjson \
//	    -ceiling 'BenchmarkSimulatorThroughput=allocs/op<=279000' \
//	    -ceiling 'BenchmarkSchedulerChurn=allocs/op<=0'
//
// Ceilings compare against the parsed metric (ns/op, B/op, allocs/op, or
// any custom unit the benchmark reports) and exit nonzero on a breach or
// when a named benchmark is missing from the input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line, stamped with the package of the
// `pkg:` header that precedes it.
type Benchmark struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the emitted document.
type Report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// ceiling is one `-ceiling 'Name=metric<=value'` constraint.
type ceiling struct {
	bench  string
	metric string
	max    float64
}

type ceilingList []ceiling

func (c *ceilingList) String() string { return fmt.Sprint(*c) }

var ceilingRe = regexp.MustCompile(`^([^=]+)=([^<]+)<=(.+)$`)

func (c *ceilingList) Set(s string) error {
	m := ceilingRe.FindStringSubmatch(s)
	if m == nil {
		return fmt.Errorf("ceiling %q not of the form 'Bench=metric<=value'", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(m[3]), 64)
	if err != nil {
		return fmt.Errorf("ceiling %q: %w", s, err)
	}
	*c = append(*c, ceiling{
		bench:  strings.TrimSpace(m[1]),
		metric: strings.TrimSpace(m[2]),
		max:    v,
	})
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "output file ('' or '-' for stdout)")
	var ceilings ceilingList
	fs.Var(&ceilings, "ceiling", "repeatable 'Bench=metric<=value' assertion")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" || *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			return err
		}
	}

	var breaches []string
	for _, c := range ceilings {
		b := find(rep.Benchmarks, c.bench)
		if b == nil {
			breaches = append(breaches, fmt.Sprintf("%s: benchmark missing from input", c.bench))
			continue
		}
		got, ok := b.Metrics[c.metric]
		if !ok {
			breaches = append(breaches, fmt.Sprintf("%s: metric %q not reported", c.bench, c.metric))
			continue
		}
		if got > c.max {
			breaches = append(breaches,
				fmt.Sprintf("%s: %s = %g exceeds ceiling %g", c.bench, c.metric, got, c.max))
		}
	}
	for _, b := range breaches {
		fmt.Fprintln(os.Stderr, "benchjson: RATCHET BREACH:", b)
	}
	if len(breaches) > 0 {
		return fmt.Errorf("%d ceiling breach(es)", len(breaches))
	}
	return nil
}

// find matches by exact name, tolerating the -P GOMAXPROCS suffix go test
// appends.
func find(bs []Benchmark, name string) *Benchmark {
	for i := range bs {
		got := bs[i].Name
		if got == name {
			return &bs[i]
		}
		if j := strings.LastIndexByte(got, '-'); j >= 0 && got[:j] == name {
			if _, err := strconv.Atoi(got[j+1:]); err == nil {
				return &bs[i]
			}
		}
	}
	return nil
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Pkg: pkg, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				b.Metrics = nil
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if b.Metrics == nil {
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}
