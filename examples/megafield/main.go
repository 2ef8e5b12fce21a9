// Megafield: the million-node kernel demo. It runs the paper's scenario
// scaled far past its 800-sensor maximum — 100k sensors by default, 1M
// with -sensors 1000000 — at the paper's density (50 sensors per
// 200 m × 200 m robot cell), and prints engine throughput next to the
// repair-pipeline results and the run's memory: the live heap with the
// world still held, and the process's peak resident set. The ladder-queue
// scheduler, the struct-of-arrays radio state and compact sensors are what
// make this size practical.
//
// Usage:
//
//	megafield                       # 100k sensors, 300 sim-seconds
//	megafield -sensors 1000000      # the full million
//	megafield -simtime 1000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"roborepair"
)

func main() {
	sensors := flag.Int("sensors", 100_000, "total sensor count (rounded to a multiple of -robots)")
	robots := flag.Int("robots", 16, "maintenance robot count")
	simtime := flag.Float64("simtime", 300, "simulated seconds")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if *sensors < *robots {
		log.Fatalf("megafield: -sensors %d below -robots %d", *sensors, *robots)
	}

	cfg := roborepair.DefaultConfig()
	cfg.Robots = *robots
	cfg.SensorsPerRobot = *sensors / *robots
	// Keep the paper's density: 50 sensors per 200 m side of per-robot
	// area ⇒ side grows with sqrt of the per-robot sensor count.
	cfg.AreaPerRobotSide = 200 * math.Sqrt(float64(cfg.SensorsPerRobot)/50)
	cfg.SimTime = *simtime
	cfg.Seed = *seed
	// At short horizons the exponential MTBF of 16000 s yields almost no
	// failures; shrink it so the repair pipeline actually exercises.
	cfg.MeanLifetime = 8 * *simtime

	fmt.Printf("megafield: %d sensors, %d robots, %.0f m field side, %.0f sim-s\n",
		cfg.NumSensors(), cfg.Robots, cfg.FieldSide(), cfg.SimTime)

	start := time.Now()
	w, err := roborepair.NewWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res := w.Run()
	wall := time.Since(start)

	// A million-sensor run manages well under 1 sim-s per wall-s, so the
	// rate keeps three significant digits rather than rounding to 0.
	fmt.Printf("wall time: %.1f s (%.3g sim-s per wall-s)\n",
		wall.Seconds(), cfg.SimTime/wall.Seconds())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	mem := fmt.Sprintf("live heap after run: %.1f MiB", float64(ms.HeapAlloc)/(1<<20))
	if kb, ok := peakRSSKiB(); ok {
		mem += fmt.Sprintf(", peak RSS: %.1f MiB", float64(kb)/1024)
	}
	fmt.Println(mem)
	fmt.Printf("failures injected: %d, reported: %d, repaired: %d\n",
		res.FailuresInjected, res.ReportsSent, res.Repairs)
	fmt.Printf("avg travel per failure: %.1f m, avg repair delay: %.0f s\n",
		res.AvgTravelPerFailure, res.AvgRepairDelay)
	if res.FailuresInjected == 0 {
		fmt.Fprintln(os.Stderr, "megafield: no failures at this horizon; raise -simtime")
	}
}

// peakRSSKiB reads the process's peak resident set size (VmHWM) from
// /proc/self/status; ok is false where that file does not exist.
func peakRSSKiB() (kb int64, ok bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, found := strings.CutPrefix(sc.Text(), "VmHWM:"); found {
			_, err := fmt.Sscan(v, &kb) // "  123456 kB"
			return kb, err == nil
		}
	}
	return 0, false
}
