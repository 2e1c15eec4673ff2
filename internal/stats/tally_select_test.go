package stats

import (
	"math"
	"sort"
	"testing"
)

// sortPercentile is Percentile as it was before selection: sort a copy,
// then interpolate between the order statistics at the rank.
func sortPercentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if !(p > 0) {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestPercentileMatchesSort holds Percentile to the sort-based oracle bit
// for bit: over random, duplicate-heavy, sorted and reversed samples,
// with ±Inf and NaN among them (up to half NaN), in plain and reservoir tallies, for
// repeated and mixed-p queries interleaved with Adds and CDFs. Zeros are
// all +0: a sort places -0 and +0, which compare equal, in no defined
// order, so no two methods agree on which one a rank reads.
func TestPercentileMatchesSort(t *testing.T) {
	x := uint64(1)
	next := func(m int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % m
	}
	sources := map[string]func(i int) float64{
		"random":     func(int) float64 { return float64(next(1_000_000)) / 7 },
		"duplicates": func(int) float64 { return float64(next(4)) },
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(-i) },
		"special": func(int) float64 {
			return []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, 1, 2.5}[next(6)]
		},
		"half-nan": func(int) float64 {
			if next(2) == 0 {
				return math.NaN()
			}
			return float64(next(100))
		},
	}
	ps := []float64{0, 0.1, 1, 25, 50, 50, 75, 90, 95, 99, 99.9, 100, -3, 140, math.NaN()}
	for _, name := range []string{"random", "duplicates", "sorted", "reversed", "special", "half-nan"} {
		src := sources[name]
		for _, reservoir := range []bool{false, true} {
			ty := NewTally(name)
			if reservoir {
				ty = NewReservoirTally(300, 7)
			}
			var all []float64
			for i := 0; i < 2_000; i++ {
				v := src(i)
				ty.Add(v)
				all = append(all, v)
				if i%97 != 0 && i > 10 {
					continue
				}
				if i%3 == 0 {
					ty.CDF(5)
				}
				for q := 0; q < 4; q++ {
					p := ps[next(len(ps))]
					want := sortPercentile(ty.samples, p)
					got := ty.Percentile(p)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s (reservoir %v) after %d samples: P%g = %v, sort says %v", name, reservoir, i+1, p, got, want)
					}
				}
			}
			if !reservoir && len(ty.samples) != len(all) {
				t.Fatalf("%s: %d samples kept of %d", name, len(ty.samples), len(all))
			}
		}
	}
}

// selectK puts every rank's sorted value in place, with nothing before
// it greater and nothing after it less, on short arrays of duplicates,
// ±Inf and NaN.
func TestSelectKEveryRank(t *testing.T) {
	x := uint64(5)
	vals := []float64{math.NaN(), math.Inf(-1), -2, 0, 0, 1, 1, 3, math.Inf(1)}
	for n := 1; n <= 40; n++ {
		base := make([]float64, n)
		for i := range base {
			x = x*6364136223846793005 + 1442695040888963407
			base[i] = vals[int(x>>33)%len(vals)]
		}
		want := append([]float64(nil), base...)
		sort.Float64s(want)
		for k := range n {
			s := append([]float64(nil), base...)
			selectK(s, k)
			if math.Float64bits(s[k]) != math.Float64bits(want[k]) {
				t.Fatalf("n=%d k=%d: %v, sorted %v", n, k, s[k], want[k])
			}
			for i := range s {
				if (i < k && less(s[k], s[i])) || (i > k && less(s[i], s[k])) {
					t.Fatalf("n=%d k=%d: s[%d]=%v on the wrong side of %v", n, k, i, s[i], s[k])
				}
			}
		}
	}
}
