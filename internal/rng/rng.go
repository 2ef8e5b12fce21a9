// Package rng provides the deterministic random sources used across the
// simulator: a splittable seeded PRNG plus the distributions the paper's
// experiments need (uniform deployment, exponential lifetimes).
//
// Every stochastic component draws from its own named stream split off the
// run seed, so adding randomness to one subsystem never perturbs another —
// a requirement for the paired-seed comparisons in the benchmark harness.
package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random stream.
//
// Every draw advances the underlying generator by a counted number of
// steps, so a stream's full state is the pair (seed, draws): State captures
// it, and a checkpoint restore verifies its replayed streams against the
// captured states without serializing math/rand internals.
type Source struct {
	r    *rand.Rand
	c    counting
	name string
	seed int64 // the seed actually fed to rand.NewSource (post-Split mix)
}

// counting wraps the stdlib generator and counts its state steps. Both
// Int63 and Uint64 advance math/rand's additive-lagged-Fibonacci state by
// exactly one step, so one counter captures the position regardless of
// which distribution methods consumed the draws.
type counting struct {
	src   rand.Source64
	draws uint64
}

func (c *counting) Int63() int64 { c.draws++; return c.src.Int63() }

func (c *counting) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *counting) Seed(seed int64) { c.src.Seed(seed); c.draws = 0 }

// StreamState is the serializable position of one stream, comparable for
// checkpoint verification.
type StreamState struct {
	// Name is the stream's Split name ("" for New-built streams).
	Name string
	// Seed is the mixed seed of the underlying generator.
	Seed int64
	// Draws is the number of generator steps consumed so far.
	Draws uint64
}

// New returns a stream seeded with seed.
func New(seed int64) *Source {
	s := &Source{seed: seed}
	// The stdlib source implements Source64; keeping it (rather than
	// substituting our own generator) preserves the exact draw sequences
	// of every historical run.
	s.c.src = rand.NewSource(seed).(rand.Source64)
	s.r = rand.New(&s.c)
	return s
}

// Split derives an independent child stream from a parent seed and a stream
// name. The same (seed, name) pair always yields the same stream.
func Split(seed int64, name string) *Source {
	h := fnv.New64a()
	// fnv never returns a write error.
	_, _ = h.Write([]byte(name))
	mixed := seed ^ int64(h.Sum64())
	s := New(mixed)
	s.name = name
	return s
}

// Name reports the stream's Split name ("" for New-built streams).
func (s *Source) Name() string { return s.name }

// Draws reports the number of generator steps consumed so far.
func (s *Source) Draws() uint64 { return s.c.draws }

// State captures the stream's exact position. The stream itself is not
// perturbed.
func (s *Source) State() StreamState {
	return StreamState{Name: s.name, Seed: s.seed, Draws: s.c.draws}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Exponential returns a draw from the exponential distribution with the
// given mean. Mean must be positive; the draw is always finite and positive.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("rng: exponential mean %v not positive", mean))
	}
	u := s.r.Float64()
	// Guard against log(0); Float64 is in [0,1) so 1-u is in (0,1].
	v := -math.Log(1 - u)
	if v <= 0 {
		v = math.SmallestNonzeroFloat64
	}
	return mean * v
}

// Jitter returns a uniform value in [0, width). Used to desynchronize
// periodic beacon timers the way real deployments are desynchronized.
func (s *Source) Jitter(width float64) float64 {
	if width <= 0 {
		return 0
	}
	return s.r.Float64() * width
}

// Normal returns a draw from the normal distribution with the given mean
// and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}
