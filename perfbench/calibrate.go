package main

import (
	"slices"
	"time"
)

// A shared host's speed drifts: other tenants slow a whole invocation
// down, in CPU time as well as wall time, by up to 2.5x over tens of
// minutes. The time metrics are therefore scaled by a reference
// computation timed between the runs of the same invocation.
//
// reference is that computation: fixed work shaped like the simulator's (a
// dependent walk over 2 MiB, map inserts and lookups, a sort, short-lived
// allocations) with no simulator code in it, so no change to the simulator
// changes its cost. Everything it allocates is garbage when it returns, so
// it adds nothing to the heap sizes the runs measure.
func reference() time.Duration {
	start := time.Now()
	const n = 1 << 19
	// x -> a*x+1 mod 2^19 with a = 1 mod 4 is a single cycle through
	// every index, in an order the hardware cannot prefetch.
	const a = 2654435761
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32((a*uint64(i) + 1) % n)
	}
	var p uint32
	for range n {
		p = next[p]
	}
	keys := make([]uint32, 1<<14)
	for i := range keys {
		keys[i] = next[(i*977)%n] ^ uint32(i)<<19
	}
	m := map[uint32]int{}
	for i, k := range keys {
		m[k] = i
	}
	var s int
	for _, k := range keys {
		s += m[k]
	}
	slices.Sort(keys)
	type obj struct {
		a, b uint64
		p    *obj
	}
	ring := make([]*obj, 1024)
	for i := range 1 << 16 {
		ring[i%len(ring)] = &obj{a: uint64(i), p: ring[(i+1)%len(ring)]}
	}
	referenceSink += uint64(p) + uint64(s) + uint64(keys[0]) + ring[0].a
	return time.Since(start)
}

// cacheBoundExponent damps the scaling of the workloads whose working set
// stays in cache, as the reference's does: under contention the reference
// slows down more than they do (2.5x against 1.8x at the worst seen), so
// their runs are scaled by the reference's slowdown to this power. It is
// fitted on 30 invocations of those three workloads on the baseline
// machine, where it brought the spread of the scaled speeds from 0.06-0.20
// (power 1) to 0.05-0.11; unscaled they spread by 0.11-0.40.
const cacheBoundExponent = 0.6

// memoryBoundExponent is the power for megafield-100k, which waits on
// memory latency over a 240 MiB heap and follows the reference less. It is
// fitted on two sets of ten invocations on the baseline machine: unscaled,
// its speeds spread by 0.05 in a quiet set and 0.28 in one where the host
// slowed down halfway; at this power by 0.08 and 0.10, at 0.6 by 0.12 and
// 0.09, at power 1 by 0.24 and 0.24.
const memoryBoundExponent = 0.4

// referenceSink keeps the reference computation's results alive.
var referenceSink uint64

// referenceTime is a typical time of reference() on the machine the
// baseline was measured on (2-core Intel Xeon VM, go1.24), where its
// median over a few minutes ranged from 14 to 36 ms within an hour. It
// only sets the units: two invocations compare alike whatever it is.
const referenceTime = 20 * time.Millisecond
