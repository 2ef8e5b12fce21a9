// Package analysis provides closed-form expectations for the quantities
// the paper measures, used to cross-validate the simulator: expected
// travel distances from geometric probability, expected hop counts from
// range geometry, expected failure counts from renewal theory, and
// expected repair waits from M/G/1 queueing. The validation tests (and
// cmd/validate) assert that simulation and theory agree to within
// model-error tolerances — a strong end-to-end invariant.
package analysis

import "math"

// UniformPairDistConst is the expected distance between two i.i.d.
// uniform points in a unit square (≈ 0.521405).
const UniformPairDistConst = 0.5214054331647207

// UniformToCenterConst is the expected distance from a uniform point in a
// unit square to the square's center: (√2 + asinh 1)/6 ≈ 0.382598.
var UniformToCenterConst = (math.Sqrt2 + math.Asinh(1)) / 6

// ExpectedPairDist returns the expected distance between two independent
// uniform points in a square of the given side — the model for the fixed
// algorithm's travel (robot and failure both ≈ uniform in one subarea).
func ExpectedPairDist(side float64) float64 {
	return UniformPairDistConst * side
}

// ExpectedDistToCenter returns the expected distance from a uniform point
// in a square of the given side to its center — the model for failure
// reports converging on the central manager.
func ExpectedDistToCenter(side float64) float64 {
	return UniformToCenterConst * side
}

// ExpectedNearestOfK returns the expected distance from a uniform point
// to the nearest of k independent uniform points in a square of the given
// side. For a Poisson field of intensity λ = k/side² the nearest-neighbor
// distance is Rayleigh with mean 1/(2√λ); the square's boundary inflates
// it slightly, which the tolerance of the validation tests absorbs.
//
// This models the dynamic and centralized algorithms' travel: a failure is
// served by the nearest of k robots whose positions are ≈ uniform (each
// robot sits at its last repair site).
func ExpectedNearestOfK(side float64, k int) float64 {
	if k <= 0 || side <= 0 {
		return 0
	}
	lambda := float64(k) / (side * side)
	return 1 / (2 * math.Sqrt(lambda))
}

// GreedyHopProgress is the typical fraction of the radio range covered
// per greedy-forwarding hop at the paper's density (50 nodes per
// 200 m × 200 m with a 63 m range ≈ 15 neighbors): the farthest neighbor
// toward the destination advances ≈ 80% of the range.
const GreedyHopProgress = 0.8

// ExpectedHops estimates the hop count of a geographically routed packet
// crossing dist meters with the given per-hop radio range. The first hop
// may use a different (larger) range — pass firstHopRange = range for
// homogeneous senders.
func ExpectedHops(dist, firstHopRange, relayRange float64) float64 {
	if dist <= 0 {
		return 0
	}
	first := firstHopRange * GreedyHopProgress
	if dist <= firstHopRange {
		return 1
	}
	rest := dist - first
	return 1 + math.Max(0, math.Ceil(rest/(relayRange*GreedyHopProgress)))
}

// ExpectedFailures returns the expected number of failures of a
// population of n continuously replaced positions over a horizon, when
// each node's lifetime is exponential with the given mean: renewal theory
// gives n·horizon/mean (replacement lag is negligible at the paper's
// repair delays).
func ExpectedFailures(n int, meanLifetime, horizon float64) float64 {
	if meanLifetime <= 0 {
		return 0
	}
	return float64(n) * horizon / meanLifetime
}

// Utilization returns the offered load ρ = λ·E[S] of one robot serving
// failures at rate lambda (failures/s) with mean service time meanService
// (travel + replacement, seconds).
func Utilization(lambda, meanService float64) float64 {
	return lambda * meanService
}

// MG1Wait returns the Pollaczek–Khinchine expected queueing delay (time
// from report to service start) of an M/G/1 queue with arrival rate
// lambda, mean service meanService and service variance serviceVar.
// It returns +Inf for ρ ≥ 1.
func MG1Wait(lambda, meanService, serviceVar float64) float64 {
	rho := Utilization(lambda, meanService)
	if rho >= 1 {
		return math.Inf(1)
	}
	es2 := serviceVar + meanService*meanService
	return lambda * es2 / (2 * (1 - rho))
}
