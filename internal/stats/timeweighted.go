package stats

import (
	"holdcsim/internal/simtime"
)

// TimeWeighted tracks a piecewise-constant signal over virtual time and
// integrates it. It backs the DVFS governor's busy-core average and —
// via EnergyMeter — power-to-energy integration.
//
// The zero value is ready to use: it reads as a signal of 0 since the
// epoch, so the first Set adds 0·t to the integral — exactly nothing —
// and starts the signal. A tracker keeps no name and no started flag:
// servers embed three.
type TimeWeighted struct {
	value    float64
	lastT    simtime.Time // time of last observation
	integral float64      // ∫ value dt in value·seconds, up to lastT
}

// Set updates the signal to v at time t, accumulating the integral for the
// elapsed interval at the previous value. t must not be before the last
// observation. The hot path is kept small enough to inline; power
// metering calls this on every port transition.
func (w *TimeWeighted) Set(t simtime.Time, v float64) {
	if t < w.lastT {
		panic("stats: TimeWeighted.Set time went backwards")
	}
	w.integral += w.value * (t - w.lastT).Seconds()
	w.lastT = t
	w.value = v
}

// IntegralTo reports ∫ value dt from the epoch to t, in value·seconds.
// t must not precede the last observation.
func (w *TimeWeighted) IntegralTo(t simtime.Time) float64 {
	if t < w.lastT {
		panic("stats: TimeWeighted.IntegralTo before last observation")
	}
	return w.integral + w.value*(t-w.lastT).Seconds()
}
