// Command perfbench is the repository benchmark. It runs one named
// workload of the repair simulator for a wall-time budget, checks the
// simulated results, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) as one JSON object on
// the last line of standard output:
//
//	perfbench --workload paper-dynamic16 --seed 1 --seconds 30 --trace 0
//
// It drives the simulator only through internal/scenario's public
// surface, one run at a time on one goroutine. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists what a user reproducing the paper's figures waits on and
// pays for, reported by the untraced, timed runs.
var endToEnd = []metricDef{
	{"sim_s_per_s", "sim-s/s"},
	{"cpu_ms_per_sim_s", "ms/sim-s"},
	{"setup_s", "s"},
	{"setup_heap_mb", "MiB"},
	{"allocs_per_sim_s", "1/sim-s"},
	{"alloc_kb_per_sim_s", "KiB/sim-s"},
	{"live_heap_mb", "MiB"},
}

// units maps every metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measurement budget in wall seconds")
	traced := fs.Int("trace", 0, "0: timed runs, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0 or 1\n",
			strings.Join(names, ", "))
		return 2
	}
	// One processor: the GC then shares the simulation's core, so its cost
	// lands in both speeds. With a second processor the GC's share of the
	// run, and the number of cycles the pacer chose, varied from run to run
	// with the other core's load: megafield-100k's CPU time per run spread
	// by ±20%, against ±10% on one processor.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds * float64(time.Second))
	measure := timeWorkload
	if *traced == 1 {
		measure = traceWorkload
	}
	rep, err := measure(wl, *seed, wl.horizon, budget)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value. The unexported fields feed the
// human-readable lines only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	lo    float64
	hi    float64
}

// report is the benchmark's result: the results check and the metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
	notes     []string
}

func newReport(v *verifier) *report {
	return &report{
		Correct:   v.correct(),
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   map[string]metric{},
		problems:  v.problems,
	}
}

// set reports a value, with the per-run values behind it, if any, for
// the human-readable lines. Every reported metric must be in endToEnd or
// perLayer, which give its unit.
func (r *report) set(name string, x float64, runs []float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	m := metric{Value: x, Unit: unit}
	for i, y := range runs {
		if i == 0 || y < m.lo {
			m.lo = y
		}
		if i == 0 || y > m.hi {
			m.hi = y
		}
		m.n++
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		r.fail("%s is %v", name, x)
		m.Value = 0
	}
	r.Metrics[name] = m
}

// fail records a failed check that is not tied to one run.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note adds a line for people to the output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// put reports a single measured value.
func (r *report) put(name string, x float64) { r.set(name, x, nil) }

// write prints one comment line per metric, note and problem, then the JSON
// result as the last line.
func (r *report) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("# %-32s %14.6g %s", name, m.Value, m.Unit)
		if m.n > 1 {
			line += fmt.Sprintf("  (%d runs, min %.6g, max %.6g)", m.n, m.lo, m.hi)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "# FAIL", p)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
