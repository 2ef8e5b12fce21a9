// Benchmark harness: one benchmark per evaluation artifact of the paper.
//
//   - BenchmarkFig2_*: Figure 2 — average robot traveling distance per
//     failure, reported as the custom metric "m/failure".
//   - BenchmarkFig3_*: Figure 3 — average message hops per failure,
//     reported as "report-hops" (and "request-hops" for centralized).
//   - BenchmarkFig4_*: Figure 4 — location-update transmissions per
//     failure, reported as "updtx/failure".
//   - BenchmarkAblation*: the §4.3.1 partition and §4.3.2 broadcast
//     ablations plus the queue-policy extension.
//
// Benchmarks use a 4000 s horizon (1/16 of the paper's) so `go test
// -bench=.` completes in minutes; the cmd/figures tool regenerates the
// figures at the full horizon. Absolute values are smaller at short
// horizons (fewer queued repairs), but the cross-algorithm ordering — the
// paper's claim — is preserved, and each bench prints it.
package roborepair_test

import (
	"math"
	"runtime"
	"testing"

	"roborepair"
	"roborepair/internal/relocation"
	"roborepair/internal/sim"
)

const benchSimTime = 4000

func benchConfig(alg roborepair.Algorithm, robots int, seed int64) roborepair.Config {
	cfg := roborepair.DefaultConfig()
	cfg.Algorithm = alg
	cfg.Robots = robots
	cfg.SimTime = benchSimTime
	cfg.Seed = seed
	return cfg
}

// runCells runs one simulation per b.N iteration (varying the seed) and
// returns the averaged results.
func runCells(b *testing.B, mutate func(*roborepair.Config), alg roborepair.Algorithm, robots int) (travel, reportHops, requestHops, updateTx float64) {
	b.Helper()
	var n int
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(alg, robots, int64(i+1))
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := roborepair.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		travel += res.AvgTravelPerFailure
		reportHops += res.AvgReportHops
		requestHops += res.AvgRequestHops
		updateTx += res.LocUpdateTxPerFailure
		n++
	}
	f := float64(n)
	return travel / f, reportHops / f, requestHops / f, updateTx / f
}

// --- Figure 2: motion overhead ---------------------------------------

func benchFig2(b *testing.B, alg roborepair.Algorithm, robots int) {
	travel, _, _, _ := runCells(b, nil, alg, robots)
	b.ReportMetric(travel, "m/failure")
	b.ReportMetric(0, "ns/op") // the domain metric is the result, not latency
}

func BenchmarkFig2_Fixed_4(b *testing.B)        { benchFig2(b, roborepair.Fixed, 4) }
func BenchmarkFig2_Fixed_9(b *testing.B)        { benchFig2(b, roborepair.Fixed, 9) }
func BenchmarkFig2_Fixed_16(b *testing.B)       { benchFig2(b, roborepair.Fixed, 16) }
func BenchmarkFig2_Dynamic_4(b *testing.B)      { benchFig2(b, roborepair.Dynamic, 4) }
func BenchmarkFig2_Dynamic_9(b *testing.B)      { benchFig2(b, roborepair.Dynamic, 9) }
func BenchmarkFig2_Dynamic_16(b *testing.B)     { benchFig2(b, roborepair.Dynamic, 16) }
func BenchmarkFig2_Centralized_4(b *testing.B)  { benchFig2(b, roborepair.Centralized, 4) }
func BenchmarkFig2_Centralized_9(b *testing.B)  { benchFig2(b, roborepair.Centralized, 9) }
func BenchmarkFig2_Centralized_16(b *testing.B) { benchFig2(b, roborepair.Centralized, 16) }

// --- Figure 3: message hops per failure -------------------------------

func benchFig3(b *testing.B, alg roborepair.Algorithm, robots int) {
	_, reportHops, requestHops, _ := runCells(b, nil, alg, robots)
	b.ReportMetric(reportHops, "report-hops")
	if alg == roborepair.Centralized {
		b.ReportMetric(requestHops, "request-hops")
	}
	b.ReportMetric(0, "ns/op")
}

func BenchmarkFig3_Centralized_4(b *testing.B)  { benchFig3(b, roborepair.Centralized, 4) }
func BenchmarkFig3_Centralized_9(b *testing.B)  { benchFig3(b, roborepair.Centralized, 9) }
func BenchmarkFig3_Centralized_16(b *testing.B) { benchFig3(b, roborepair.Centralized, 16) }
func BenchmarkFig3_Dynamic_4(b *testing.B)      { benchFig3(b, roborepair.Dynamic, 4) }
func BenchmarkFig3_Dynamic_9(b *testing.B)      { benchFig3(b, roborepair.Dynamic, 9) }
func BenchmarkFig3_Dynamic_16(b *testing.B)     { benchFig3(b, roborepair.Dynamic, 16) }
func BenchmarkFig3_Fixed_4(b *testing.B)        { benchFig3(b, roborepair.Fixed, 4) }
func BenchmarkFig3_Fixed_9(b *testing.B)        { benchFig3(b, roborepair.Fixed, 9) }
func BenchmarkFig3_Fixed_16(b *testing.B)       { benchFig3(b, roborepair.Fixed, 16) }

// --- Figure 4: location-update transmissions per failure --------------

func benchFig4(b *testing.B, alg roborepair.Algorithm, robots int) {
	_, _, _, updateTx := runCells(b, nil, alg, robots)
	b.ReportMetric(updateTx, "updtx/failure")
	b.ReportMetric(0, "ns/op")
}

func BenchmarkFig4_Dynamic_4(b *testing.B)      { benchFig4(b, roborepair.Dynamic, 4) }
func BenchmarkFig4_Dynamic_9(b *testing.B)      { benchFig4(b, roborepair.Dynamic, 9) }
func BenchmarkFig4_Dynamic_16(b *testing.B)     { benchFig4(b, roborepair.Dynamic, 16) }
func BenchmarkFig4_Fixed_4(b *testing.B)        { benchFig4(b, roborepair.Fixed, 4) }
func BenchmarkFig4_Fixed_9(b *testing.B)        { benchFig4(b, roborepair.Fixed, 9) }
func BenchmarkFig4_Fixed_16(b *testing.B)       { benchFig4(b, roborepair.Fixed, 16) }
func BenchmarkFig4_Centralized_4(b *testing.B)  { benchFig4(b, roborepair.Centralized, 4) }
func BenchmarkFig4_Centralized_9(b *testing.B)  { benchFig4(b, roborepair.Centralized, 9) }
func BenchmarkFig4_Centralized_16(b *testing.B) { benchFig4(b, roborepair.Centralized, 16) }

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationHexPartition reproduces the §4.3.1 claim that hexagonal
// partitioning changes the fixed algorithm's overheads negligibly.
func BenchmarkAblationHexPartition(b *testing.B) {
	travel, _, _, updateTx := runCells(b, func(c *roborepair.Config) {
		c.Partition = roborepair.PartitionHex
	}, roborepair.Fixed, 9)
	b.ReportMetric(travel, "m/failure")
	b.ReportMetric(updateTx, "updtx/failure")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkAblationSquarePartition is the square baseline for the hex
// ablation at the same scale.
func BenchmarkAblationSquarePartition(b *testing.B) {
	travel, _, _, updateTx := runCells(b, nil, roborepair.Fixed, 9)
	b.ReportMetric(travel, "m/failure")
	b.ReportMetric(updateTx, "updtx/failure")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkAblationEfficientBroadcast measures the §4.3.2 relay-set
// optimization on the dynamic algorithm's flooding bill.
func BenchmarkAblationEfficientBroadcast(b *testing.B) {
	_, _, _, updateTx := runCells(b, func(c *roborepair.Config) {
		c.EfficientBroadcast = true
	}, roborepair.Dynamic, 9)
	b.ReportMetric(updateTx, "updtx/failure")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkAblationBlindBroadcast is the blind-flooding baseline.
func BenchmarkAblationBlindBroadcast(b *testing.B) {
	_, _, _, updateTx := runCells(b, nil, roborepair.Dynamic, 9)
	b.ReportMetric(updateTx, "updtx/failure")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkAblationNearestFirstQueue swaps the paper's FCFS robot queue
// for nearest-task-first scheduling.
func BenchmarkAblationNearestFirstQueue(b *testing.B) {
	travel, _, _, _ := runCells(b, func(c *roborepair.Config) {
		c.NearestFirstQueue = true
	}, roborepair.Dynamic, 9)
	b.ReportMetric(travel, "m/failure")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkAblationUpdateThreshold40 doubles the 20 m location-update
// threshold (§4.2 trade-off).
func BenchmarkAblationUpdateThreshold40(b *testing.B) {
	_, _, _, updateTx := runCells(b, func(c *roborepair.Config) {
		c.UpdateThreshold = 40
	}, roborepair.Dynamic, 9)
	b.ReportMetric(updateTx, "updtx/failure")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkBaselineRelocation measures the Wang et al. [13] sensor
// self-relocation baseline (related-work comparison): cascaded movement
// per failure on the paper's 4-robot field.
func BenchmarkBaselineRelocation(b *testing.B) {
	var total, maxHop float64
	var n int
	for i := 0; i < b.N; i++ {
		cfg := relocation.DefaultConfig()
		cfg.Seed = int64(i + 1)
		st, err := relocation.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += st.CascadeTotalPerFailure
		maxHop += st.CascadeMaxHopPerFailure
		n++
	}
	b.ReportMetric(total/float64(n), "m/failure")
	b.ReportMetric(maxHop/float64(n), "maxhop-m")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// seconds per wall-clock second on the paper's largest configuration.
// allocs/op is the tracked number — the event pool, the medium's
// delivery buffers and static neighbor sets, and interned counters all
// exist to keep it flat as the simulated horizon grows.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const simTime = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(roborepair.Dynamic, 16, int64(i+1))
		cfg.SimTime = simTime
		if _, err := roborepair.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(simTime*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
}

// BenchmarkWorldBuild measures building a 10k-sensor field at the paper's
// density (16 robots, 625 sensors each, on a 200 m per 50 sensors scale):
// world construction, no simulated time. allocs/op and B/op are the
// tracked numbers: a sensor shares the world's config and hooks, holds
// its table inline, builds its router per use, and sizes its table and
// boxes its beacon on first use, so constructing it is one allocation;
// the rest of a sensor's share is
// its boot events (announce, guardian selection, beacon ticker, lifetime).
func BenchmarkWorldBuild(b *testing.B) {
	cfg := roborepair.DefaultConfig()
	cfg.Robots = 16
	cfg.SensorsPerRobot = 625
	cfg.AreaPerRobotSide = 200 * math.Sqrt(625.0/50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := roborepair.NewWorld(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFieldFootprint measures what a booted sensor field keeps alive:
// the 10k-sensor field of BenchmarkWorldBuild, run through boot (guardian
// selection plus one beacon period), reports its live heap per sensor as
// live-B/sensor — the heap in use after a GC with the world reachable,
// less the heap in use before it was built, averaged over the iterations
// (iteration i builds seed i+1). Tables, robot tracks, pending events and
// the radio's static sets all count.
func BenchmarkFieldFootprint(b *testing.B) {
	cfg := roborepair.DefaultConfig()
	cfg.Robots = 16
	cfg.SensorsPerRobot = 625
	cfg.AreaPerRobotSide = 200 * math.Sqrt(625.0/50)
	var total float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		w, err := roborepair.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var boot sim.Time
		for _, s := range w.Sensors {
			c := s.Config()
			boot = sim.Time(c.SettleDelay + c.BeaconPeriod)
			break
		}
		w.Sched.Run(boot)
		b.StopTimer()
		total += float64(liveHeap()-before) / float64(len(w.Sensors))
		runtime.KeepAlive(w)
		b.StartTimer()
	}
	b.ReportMetric(total/float64(b.N), "live-B/sensor")
}

// BenchmarkPaperDensityField runs a field at the paper's operating point,
// where the fleet grows with the field (50 sensors per robot, §2): 10k
// sensors and 200 robots through boot and a 200 sim-s window whose
// shortened sensor lifetime (8× the horizon, as in examples/megafield)
// makes it contain repairs. It reports the live heap per sensor after the
// run with the world reachable (live-B/sensor, measured as in
// BenchmarkFieldFootprint) and the allocations of the run itself, world
// construction excluded, per simulated second (allocs/sim-s). A sensor
// hears only the robots near it, so neither may grow with the fleet.
func BenchmarkPaperDensityField(b *testing.B) {
	const simTime = 200
	cfg := roborepair.DefaultConfig()
	cfg.Robots = 200
	cfg.SimTime = simTime
	cfg.MeanLifetime = 8 * simTime
	var live, allocs float64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		w, err := roborepair.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		built := ms.Mallocs
		res := w.Run()
		runtime.ReadMemStats(&ms)
		b.StopTimer()
		if res.Repairs == 0 {
			b.Fatalf("seed %d: no repairs in the window", cfg.Seed)
		}
		allocs += float64(ms.Mallocs-built) / simTime
		live += float64(liveHeap()-before) / float64(len(w.Sensors))
		runtime.KeepAlive(w)
		b.StartTimer()
	}
	b.ReportMetric(live/float64(b.N), "live-B/sensor")
	b.ReportMetric(allocs/float64(b.N), "allocs/sim-s")
}

// liveHeap returns the bytes of heap objects in use after a full GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkSimulatorThroughputTelemetry is the same workload with the full
// telemetry layer on (histograms, and the flight recorder it arms at the
// default cadence).
// Compare against BenchmarkSimulatorThroughput to measure the enabled
// overhead; the target is <10% on both ns/op and sim-s/s.
func BenchmarkSimulatorThroughputTelemetry(b *testing.B) {
	const simTime = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(roborepair.Dynamic, 16, int64(i+1))
		cfg.SimTime = simTime
		cfg.Telemetry.Enabled = true
		if _, err := roborepair.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(simTime*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
}

// BenchmarkSimulatorThroughputFTDC is the same workload with the flight
// recorder armed — the always-on capture path. Compare against
// BenchmarkSimulatorThroughput: the target is ≤2% wall clock and
// setup-only allocations (the recorder preallocates its column buffers
// and appends allocation-free; only chunk flushes add a handful).
func BenchmarkSimulatorThroughputFTDC(b *testing.B) {
	const simTime = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(roborepair.Dynamic, 16, int64(i+1))
		cfg.SimTime = simTime
		cfg.Recorder.Enabled = true
		if _, err := roborepair.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(simTime*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
}

// BenchmarkSimulatorThroughputInvariants is the same workload with the
// conservation-law checker on (kernel audit, radio auditor, kinematics,
// per-site lifecycle tracking). Compare against
// BenchmarkSimulatorThroughput to measure the enabled overhead; with the
// checker disabled the throughput benchmark itself must stay within 2%
// of pre-checker builds — the hooks compile to nil checks.
func BenchmarkSimulatorThroughputInvariants(b *testing.B) {
	const simTime = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(roborepair.Dynamic, 16, int64(i+1))
		cfg.SimTime = simTime
		cfg.Invariants.Enabled = true
		if _, err := roborepair.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(simTime*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
}
