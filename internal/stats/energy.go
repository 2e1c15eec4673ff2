package stats

import (
	"math"

	"holdcsim/internal/simtime"
)

// EnergyMeter integrates a piecewise-constant power draw (watts) into
// energy (joules). Each modeled component — core, package/uncore, DRAM,
// platform, switch chassis, line card, port — owns one meter; the paper's
// Figs. 5, 6, 9 and 11a aggregate them. The zero value is an anonymous
// meter ready to use, so an owner with several meters embeds them.
type EnergyMeter struct {
	tw TimeWeighted
}

// NewEnergyMeter returns a meter; integration starts at the first SetPower.
func NewEnergyMeter(name string) *EnergyMeter {
	return &EnergyMeter{tw: TimeWeighted{name: name}}
}

// SetPower records the instantaneous draw w (watts) starting at time t.
// This is the hot path of every port/line-card power transition.
func (m *EnergyMeter) SetPower(t simtime.Time, w float64) { m.tw.Set(t, w) }

// EnergyTo reports accumulated joules up to time t.
func (m *EnergyMeter) EnergyTo(t simtime.Time) float64 { return m.tw.IntegralTo(t) }

// CompareSeries reports the mean absolute difference and the standard
// deviation of differences between two equally-sampled series, truncated
// to the shorter one — the error metrics the paper reports for validation
// (0.22 W server, 0.12 W switch).
func CompareSeries(a, b []float64) (meanAbsDiff, stdDiff float64) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0, 0
	}
	diffs := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		diffs[i] = d
		if d < 0 {
			sum -= d
		} else {
			sum += d
		}
	}
	meanAbsDiff = sum / float64(n)
	mean := 0.0
	for _, d := range diffs {
		mean += d
	}
	mean /= float64(n)
	varSum := 0.0
	for _, d := range diffs {
		varSum += (d - mean) * (d - mean)
	}
	if n > 1 {
		stdDiff = math.Sqrt(varSum / float64(n-1))
	}
	return meanAbsDiff, stdDiff
}
