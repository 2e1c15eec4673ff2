package stats

import (
	"holdcsim/internal/simtime"
)

// TimeWeighted tracks a piecewise-constant signal over virtual time and
// integrates it. It backs the DVFS governor's busy-core average and —
// via EnergyMeter — power-to-energy integration.
type TimeWeighted struct {
	name     string
	value    float64
	lastT    simtime.Time // time of last observation
	integral float64      // ∫ value dt in value·seconds, up to lastT
	started  bool
}

// NewTimeWeighted returns an idle tracker; tracking begins at the first
// Start or Set call.
func NewTimeWeighted(name string) *TimeWeighted {
	return &TimeWeighted{name: name}
}

// Start begins tracking at time t with the given initial value.
func (w *TimeWeighted) Start(t simtime.Time, initial float64) {
	w.started = true
	w.lastT = t
	w.value = initial
	w.integral = 0
}

// Set updates the signal to v at time t, accumulating the integral for the
// elapsed interval at the previous value. t must not be before the last
// observation. The first Set acts as Start. The hot path is kept small
// enough to inline; power metering calls this on every port transition.
func (w *TimeWeighted) Set(t simtime.Time, v float64) {
	if !w.started || t < w.lastT {
		w.setSlow(t, v)
		return
	}
	w.integral += w.value * (t - w.lastT).Seconds()
	w.lastT = t
	w.value = v
}

// setSlow handles Set's cold cases: the first observation (acts as
// Start) and time running backwards (panic).
func (w *TimeWeighted) setSlow(t simtime.Time, v float64) {
	if !w.started {
		w.Start(t, v)
		return
	}
	panic("stats: TimeWeighted.Set time went backwards in " + w.name)
}

// IntegralTo reports ∫ value dt from Start to t, in value·seconds.
// t must not precede the last observation.
func (w *TimeWeighted) IntegralTo(t simtime.Time) float64 {
	if !w.started {
		return 0
	}
	if t < w.lastT {
		panic("stats: TimeWeighted.IntegralTo before last observation in " + w.name)
	}
	return w.integral + w.value*(t-w.lastT).Seconds()
}
