// Package stats implements the runtime-statistics substrate of HolDCSim:
// sample tallies with percentiles and CDFs, time-weighted integrals,
// per-state residency trackers and piecewise-constant energy meters.
// The paper's validation readings (RAPL, power logger) are an energy
// meter read at fixed intervals from an Engine.Every tick.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Tally accumulates scalar samples. It keeps a running mean (Welford's
// update) and maximum plus the raw samples (all of them, or a bounded
// reservoir) so percentiles and CDFs can be produced — job populations in the paper's
// experiments are at most a few hundred thousand, so retention is cheap.
type Tally struct {
	n       int64
	mean    float64
	max     float64
	samples []float64
	dirty   bool   // samples not known sorted: appended since the last sort
	resCap  int    // >0: bound retention to resCap samples (Algorithm R)
	rngSt   uint64 // xorshift64 state for reservoir replacement draws
}

// NewTally returns an empty tally that retains samples for percentiles.
// The argument labels the tally at its call site; nothing reads it.
func NewTally(string) *Tally {
	return &Tally{max: math.Inf(-1)}
}

// NewReservoirTally returns a tally whose retained-sample buffer is bounded
// at capacity via Vitter's Algorithm R, so memory stays O(capacity) no
// matter how many samples arrive. The mean and max remain exact;
// Percentile and CDF become approximations computed over the reservoir
// (a uniform random subset of the stream). Replacement draws come from an
// internal deterministic xorshift64 generator seeded with seed, so the
// tally consumes nothing from the simulation's rng streams and identical
// (seed, sample sequence) pairs yield identical reservoirs.
func NewReservoirTally(capacity int, seed uint64) *Tally {
	if capacity < 1 {
		capacity = 1
	}
	return &Tally{
		max:    math.Inf(-1),
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
	t.mean += (x - t.mean) / float64(t.n)
	if x > t.max {
		t.max = x
	}
	if t.resCap > 0 && len(t.samples) >= t.resCap {
		// Algorithm R: sample x survives with probability cap/n, replacing
		// a uniformly chosen reservoir slot. (The reservoir is a uniform
		// subset under any permutation, so the in-place reordering that
		// Percentile and CDF perform between Adds does not bias
		// replacement.)
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

// Max reports the largest sample (0 when empty, like Mean: empty tallies
// render as zeros, never as ±Inf/NaN, in summary tables).
func (t *Tally) Max() float64 {
	if t.n == 0 {
		return 0
	}
	return t.max
}

// Percentile reports the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics. It returns 0 when empty.
// Samples left sorted by a CDF are read in place; otherwise it selects
// the one or two order statistics it reads, O(n), and leaves the samples
// partly ordered. Either way the value is the one a full sort gives.
func (t *Tally) Percentile(p float64) float64 {
	s := t.samples
	if len(s) == 0 {
		return 0
	}
	lo, frac := len(s)-1, 0.0
	switch {
	case !(p > 0): // includes NaN: degenerate p never indexes out of range
		lo = 0
	case p < 100:
		rank := p / 100 * float64(len(s)-1)
		lo = int(math.Floor(rank))
		frac = rank - float64(lo)
	}
	if frac == 0 {
		if t.dirty {
			selectK(s, lo)
		}
		return s[lo]
	}
	if t.dirty {
		// s[lo+1] is then the least of what follows s[lo].
		selectK(s, lo)
		m := lo + 1
		for i := m + 1; i < len(s); i++ {
			if less(s[i], s[m]) {
				m = i
			}
		}
		s[lo+1], s[m] = s[m], s[lo+1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// less is the order sort.Float64s sorts by: NaN first, then ascending.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectK reorders s so that s[k] holds the value sorting s would put
// there, nothing before it greater and nothing after it less (Hoare's
// FIND, pivoting on the middle of the range). The range shrinks every
// round; should it shrink slowly for 2·log2(n) rounds, what is left is
// sorted instead, so the worst case stays O(n log n).
func selectK(s []float64, k int) {
	l, r := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); l < r; budget-- {
		if budget == 0 {
			sort.Float64s(s[l : r+1])
			return
		}
		x := s[l+(r-l)/2]
		i, j := l, r
		for i <= j {
			for less(s[i], x) {
				i++
			}
			for less(x, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[l..j] ≤ x ≤ s[i..r], and anything between equals x.
		if j < k {
			l = i
		}
		if k < i {
			r = j
		}
	}
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
