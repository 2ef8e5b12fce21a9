package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"roborepair/internal/scenario"
)

const mib = 1 << 20

// runStats is what one untraced run measures.
type runStats struct {
	setup     time.Duration // wall time of scenario.New
	setupHeap uint64        // live heap after New, after a forced GC
	wall      time.Duration // wall time of World.Run
	cpu       time.Duration // process CPU (user+sys, all threads) during Run
	mallocs   uint64        // heap objects allocated during Run
	allocB    uint64        // heap bytes allocated during Run
	liveHeap  uint64        // live heap after Run, world still reachable
	events    uint64
	highWater int
	gcCPU     float64 // GC share of the runtime's CPU estimate during Run
	gcCycles  uint64
	res       scenario.Results
}

// build times scenario.New on a collected heap.
func build(cfg scenario.Config) (*scenario.World, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	w, err := scenario.New(cfg)
	return w, time.Since(start), err
}

// runOnce builds and runs one world, measuring the run phase. A panic in
// the simulator is returned as an error.
func runOnce(cfg scenario.Config) (st runStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	w, setup, err := build(cfg)
	if err != nil {
		return st, err
	}
	st.setup = setup
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st.setupHeap = m0.HeapAlloc
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	st.res = w.Run()
	st.wall = time.Since(start)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.allocB = m1.TotalAlloc - m0.TotalAlloc
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	st.liveHeap = m2.HeapAlloc
	rt1 := readRuntime()
	st.gcCycles = rt1.cycles - rt0.cycles
	if d := (rt1.gc - rt0.gc) + (rt1.user - rt0.user); d > 0 {
		st.gcCPU = (rt1.gc - rt0.gc) / d
	}
	st.events = w.Sched.Fired()
	st.highWater = w.Sched.HighWater()
	runtime.KeepAlive(w)
	return st, nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct {
	gc, user float64 // cpu-seconds
	cycles   uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.user = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.cycles = s[2].Value.Uint64()
	}
	return out
}

// fingerprint hashes a run's results as JSON. The recorder, telemetry and
// registry pointers are cleared: they hold observer state and raw
// counters, not the outcomes the JSON reports.
func fingerprint(res scenario.Results) string {
	res.Recording, res.Telemetry, res.Registry = nil, nil, nil
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// verifier accumulates the results check over the runs of one invocation.
type verifier struct {
	wl        workload
	horizon   float64
	refs      map[int64]string // fingerprint of each seed's first run
	attempted int
	failed    int
	problems  []string
}

func newVerifier(wl workload, horizon float64) *verifier {
	return &verifier{wl: wl, horizon: horizon, refs: map[int64]string{}}
}

// record checks one run: it must not have errored, must pass the
// workload's own check, and must reproduce the fingerprint of the first
// run of its seed, and the pinned one at the default seed and horizon.
func (v *verifier) record(what string, seed int64, res scenario.Results, err error) {
	v.attempted++
	if err == nil {
		err = v.wl.check(res)
	}
	if err == nil {
		fp := fingerprint(res)
		if ref, ok := v.refs[seed]; !ok {
			v.refs[seed] = fp
			if want := pinned[v.wl.name]; seed == defaultSeed && v.horizon == v.wl.horizon && fp != want {
				err = fmt.Errorf("fingerprint %s, pinned %s", fp, want)
			}
		} else if fp != ref {
			err = fmt.Errorf("fingerprint %s differs from the first run's %s", fp, ref)
		}
	}
	if err != nil {
		v.failed++
		v.problems = append(v.problems, fmt.Sprintf("%s (seed %d): %v", what, seed, err))
	}
}

func (v *verifier) correct() bool { return len(v.problems) == 0 && v.attempted > 0 }

// fieldSeed is the seed of an invocation's i-th run. Every run
// simulates a field of its own: the work per simulated second follows the
// field's failure count, which is Poisson, so only the total simulated
// time over distinct fields narrows the spread between invocations. Run 0
// uses the invocation's own seed.
func fieldSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_000 }

// timeWorkload is the untraced measurement: it runs the workload on
// successive fields until the budget is spent, and at least on the
// workload's first wl.fields fields. The two speeds are medians of the
// per-run values over all runs: other tenants of a shared host slow some
// runs down, never up, and a median ignores a minority of slowed runs.
// Allocation counts and heap sizes do not depend on the host's speed, so
// they cover exactly the first wl.fields fields, whatever the budget
// allows: allocations as totals, the steadier estimate, heap sizes as
// means. setup_s is the median build time, over the runs and a few extra
// builds made first where a build is cheap.
//
// The three time metrics are scaled to the reference machine's speed:
// multiplied (sim_s_per_s) or divided (the other two) by host, the median
// time of the reference computation over the invocation relative to
// referenceTime, to the power wl.hostExponent. A slower host slows both,
// so host drift largely cancels; a change to the simulator moves only the
// runs.
func timeWorkload(wl workload, seed int64, horizon float64, budget time.Duration) (*report, error) {
	v := newVerifier(wl, horizon)
	start := time.Now()
	var refs []float64
	timeReference := func(n int) {
		for range n {
			refs = append(refs, reference().Seconds())
		}
	}
	timeReference(8)
	var setups []float64
	for i := 0; i < 200 && time.Since(start) < budget/20; i++ {
		cfg, err := wl.config(fieldSeed(seed, i), horizon)
		if err != nil {
			return nil, err
		}
		_, d, err := build(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	var fixed runStats // totals over the first wl.fields fields
	perRun := map[string][]float64{}
	add := func(name string, x float64) { perRun[name] = append(perRun[name], x) }
	for run := 0; ; run++ {
		t0 := time.Now()
		timeReference(2)
		cfg, err := wl.config(fieldSeed(seed, run), horizon)
		if err != nil {
			return nil, err
		}
		st, err := runOnce(cfg)
		v.record(fmt.Sprintf("run %d", run+1), cfg.Seed, st.res, err)
		if err == nil {
			setups = append(setups, st.setup.Seconds())
			add("sim_s_per_s", horizon/st.wall.Seconds())
			add("cpu_ms_per_sim_s", st.cpu.Seconds()*1000/horizon)
			if run < wl.fields {
				fixed.mallocs += st.mallocs
				fixed.allocB += st.allocB
				fixed.setupHeap += st.setupHeap
				fixed.liveHeap += st.liveHeap
				add("setup_heap_mb", float64(st.setupHeap)/mib)
				add("allocs_per_sim_s", float64(st.mallocs)/horizon)
				add("alloc_kb_per_sim_s", float64(st.allocB)/1024/horizon)
				add("live_heap_mb", float64(st.liveHeap)/mib)
			}
		}
		if run+1 >= wl.fields && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	n := float64(len(perRun["allocs_per_sim_s"]))
	simS := horizon * n
	host := math.Pow(median(refs)/referenceTime.Seconds(), wl.hostExponent)
	scale(perRun["sim_s_per_s"], host)
	scale(perRun["cpu_ms_per_sim_s"], 1/host)
	scale(setups, 1/host)
	rep := newReport(v)
	rep.note("reference computation %.4g ms, median of %d: time metrics scaled by 1/%.4g",
		median(refs)*1000, len(refs), host)
	rep.set("sim_s_per_s", median(perRun["sim_s_per_s"]), perRun["sim_s_per_s"])
	rep.set("cpu_ms_per_sim_s", median(perRun["cpu_ms_per_sim_s"]), perRun["cpu_ms_per_sim_s"])
	rep.set("setup_s", median(setups), setups)
	rep.set("setup_heap_mb", float64(fixed.setupHeap)/mib/n, perRun["setup_heap_mb"])
	rep.set("allocs_per_sim_s", float64(fixed.mallocs)/simS, perRun["allocs_per_sim_s"])
	rep.set("alloc_kb_per_sim_s", float64(fixed.allocB)/1024/simS, perRun["alloc_kb_per_sim_s"])
	rep.set("live_heap_mb", float64(fixed.liveHeap)/mib/n, perRun["live_heap_mb"])
	return rep, nil
}

func scale(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
