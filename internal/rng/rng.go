// Package rng provides deterministic pseudo-random streams for the
// simulator.
//
// Every stochastic component (arrival processes, service-time samplers,
// ECMP hashing, trace synthesis, measurement noise) draws from its own
// Source, derived from the experiment's master seed and a string label.
// Splitting by label means adding a new consumer never perturbs the draws
// seen by existing ones, which keeps experiments comparable across code
// versions — a property the paper's parameter sweeps (Figs. 5, 6, 8)
// depend on.
package rng

import (
	"math"
	"math/rand/v2"
)

// Source is a deterministic random stream.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded from the two words of seed material.
func New(seed uint64) *Source {
	return &Source{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Split derives an independent child stream from s and a label. The same
// (seed, label) pair always yields the same stream.
func (s *Source) Split(label string) *Source {
	h := fnv64(label)
	// Mix the parent stream position into the child seed so repeated
	// splits with the same label produce distinct streams.
	a := s.r.Uint64() ^ h
	b := s.r.Uint64() ^ (h * 0x100000001b3)
	return &Source{r: rand.New(rand.NewPCG(a, b))}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.r.Uint64() }

// IntN returns a uniform value in [0, n). n must be > 0.
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Uniform returns a value uniform in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Normal returns a normally distributed value.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Pareto returns a Pareto-distributed value with minimum xm and shape
// alpha (> 0). Heavy-tailed for alpha <= 2; used for bursty on/off trace
// synthesis.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := 1 - s.r.Float64() // in (0, 1]
	return xm / math.Pow(u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.r.Float64() < p }

// Poisson returns a Poisson-distributed count with the given mean, using
// inversion for small means and the PTRS transformed-rejection method is
// unnecessary at our scale; for large means we fall back to a normal
// approximation, which is adequate for synthetic trace bucket counts.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := s.Normal(mean, math.Sqrt(mean))
	if n < 0 {
		return 0
	}
	return int(math.Round(n))
}

func fnv64(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
