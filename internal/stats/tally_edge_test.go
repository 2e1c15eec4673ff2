package stats

import (
	"math"
	"testing"
)

// TestEmptyTallyIsAllZeros: every summary statistic of an empty tally
// renders as zero — never ±Inf or NaN — so zero-completion experiment
// rows stay plottable.
func TestEmptyTallyIsAllZeros(t *testing.T) {
	ta := NewTally("empty")
	for name, got := range map[string]float64{
		"Mean": ta.Mean(),
		"Max":  ta.Max(), "Sum": ta.Sum(),
		"P0": ta.Percentile(0), "P50": ta.Percentile(50), "P100": ta.Percentile(100),
	} {
		if got != 0 {
			t.Errorf("%s = %g on empty tally, want 0", name, got)
		}
	}
	if cdf := ta.CDF(10); cdf != nil {
		t.Errorf("CDF of empty tally = %v, want nil", cdf)
	}
}

// TestPercentileDegenerateP: out-of-range and NaN percentile arguments
// clamp to the extremes instead of indexing out of bounds.
func TestPercentileDegenerateP(t *testing.T) {
	ta := NewTally("x")
	ta.Add(1)
	ta.Add(2)
	ta.Add(3)
	cases := map[float64]float64{
		-10: 1, 0: 1, 100: 3, 250: 3, math.NaN(): 1,
	}
	for p, want := range cases {
		if got := ta.Percentile(p); got != want {
			t.Errorf("Percentile(%g) = %g, want %g", p, got, want)
		}
	}
}
