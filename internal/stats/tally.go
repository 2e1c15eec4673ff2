// Package stats implements the runtime-statistics substrate of HolDCSim:
// sample tallies with percentiles and CDFs, time-weighted integrals,
// per-state residency trackers, piecewise-constant energy meters, and
// fixed-interval power samplers (the simulator-side equivalent of RAPL /
// power-logger readings used in the paper's validation).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Tally accumulates scalar samples. It keeps running moments (Welford) for
// mean/variance plus the raw samples (all of them, or a bounded reservoir)
// so percentiles and CDFs can be produced — job populations in the paper's
// experiments are at most a few hundred thousand, so retention is cheap.
type Tally struct {
	name    string
	n       int64
	mean    float64
	m2      float64
	min     float64
	max     float64
	samples []float64
	dirty   bool   // samples appended since the last sort
	resCap  int    // >0: bound retention to resCap samples (Algorithm R)
	rngSt   uint64 // xorshift64 state for reservoir replacement draws
}

// NewTally returns an empty tally that retains samples for percentiles.
func NewTally(name string) *Tally {
	return &Tally{name: name, min: math.Inf(1), max: math.Inf(-1)}
}

// NewReservoirTally returns a tally whose retained-sample buffer is bounded
// at capacity via Vitter's Algorithm R, so memory stays O(capacity) no
// matter how many samples arrive. Moments, min, and max remain exact;
// Percentile and CDF become approximations computed over the reservoir
// (a uniform random subset of the stream). Replacement draws come from an
// internal deterministic xorshift64 generator seeded with seed, so the
// tally consumes nothing from the simulation's rng streams and identical
// (seed, sample sequence) pairs yield identical reservoirs.
func NewReservoirTally(name string, capacity int, seed uint64) *Tally {
	if capacity < 1 {
		capacity = 1
	}
	return &Tally{
		name: name, min: math.Inf(1), max: math.Inf(-1),
		resCap: capacity,
		rngSt:  splitmix64(seed),
	}
}

// splitmix64 scrambles the user seed into a non-zero xorshift state;
// xorshift64 has an absorbing state at zero.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	return x
}

// randN draws a uniform value in [0, n) from the tally's private stream.
// Modulo bias at reservoir scales (n up to ~2^40, cap ~2^20) is far below
// the sampling noise of the reservoir itself.
func (t *Tally) randN(n int64) int64 {
	x := t.rngSt
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rngSt = x
	return int64(x % uint64(n))
}

// Add records one sample.
func (t *Tally) Add(x float64) {
	t.n++
	d := x - t.mean
	t.mean += d / float64(t.n)
	t.m2 += d * (x - t.mean)
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	if t.resCap > 0 && len(t.samples) >= t.resCap {
		// Algorithm R: sample x survives with probability cap/n, replacing
		// a uniformly chosen reservoir slot. (The reservoir is a uniform
		// subset under any permutation, so the lazy in-place sort that
		// Percentile performs between Adds does not bias replacement.)
		if j := t.randN(t.n); j < int64(t.resCap) {
			t.samples[j] = x
			t.dirty = true
		}
		return
	}
	t.samples = append(t.samples, x)
	t.dirty = true
}

// Reserve sizes the sample buffer for n samples in all (at most the
// reservoir capacity), so a run of known length never grows it.
func (t *Tally) Reserve(n int) {
	if t.resCap > 0 {
		n = min(n, t.resCap)
	}
	if n > cap(t.samples) {
		t.samples = append(make([]float64, 0, n), t.samples...)
	}
}

// Count reports the number of samples recorded.
func (t *Tally) Count() int64 { return t.n }

// Mean reports the sample mean (0 when empty).
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.mean
}

// Variance reports the unbiased sample variance.
func (t *Tally) Variance() float64 {
	if t.n < 2 {
		return 0
	}
	return t.m2 / float64(t.n-1)
}

// StdDev reports the sample standard deviation.
func (t *Tally) StdDev() float64 { return math.Sqrt(t.Variance()) }

// Min reports the smallest sample (0 when empty, like Mean — empty
// tallies render as zeros, never as ±Inf/NaN, in summary tables).
func (t *Tally) Min() float64 {
	if t.n == 0 {
		return 0
	}
	return t.min
}

// Max reports the largest sample (0 when empty).
func (t *Tally) Max() float64 {
	if t.n == 0 {
		return 0
	}
	return t.max
}

// Percentile reports the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics. It returns 0 when empty.
func (t *Tally) Percentile(p float64) float64 {
	if len(t.samples) == 0 {
		return 0
	}
	s := t.sorted()
	if !(p > 0) { // includes NaN: degenerate p never indexes out of range
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF returns (x, F(x)) pairs over at most points steps, suitable for
// plotting job-latency CDFs (Fig. 11b).
func (t *Tally) CDF(points int) []CDFPoint {
	s := t.sorted()
	if len(s) == 0 {
		return nil
	}
	if points < 2 {
		points = 2
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := i * (len(s) - 1) / (points - 1)
		out = append(out, CDFPoint{X: s[idx], F: float64(idx+1) / float64(len(s))})
	}
	return out
}

// String summarizes the tally.
func (t *Tally) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		t.name, t.n, t.Mean(), t.StdDev(), t.Min(), t.Max())
}

// sorted returns the retained samples in ascending order. Percentile and
// CDF queries between Adds reuse the same sorted slice: the sort runs only
// when new samples have arrived since the last query, not on every call.
func (t *Tally) sorted() []float64 {
	if t.dirty {
		sort.Float64s(t.samples)
		t.dirty = false
	}
	return t.samples
}

// CDFPoint is a single point of an empirical CDF.
type CDFPoint struct {
	X float64 // sample value
	F float64 // cumulative probability at X
}
