// Package dist provides the service-time and arrival-size distributions
// used by workload factories (paper Sec. III-D): memoryless exponential
// service, uniform and deterministic profiles, heavy-tailed log-normal
// and Pareto sizes, and the 2-state Markov-Modulated Poisson Process
// behind the burstiness sweeps.
//
// Every distribution draws from an explicit *rng.Source so experiments
// stay deterministic and label-splittable.
package dist

import (
	"fmt"
	"math"

	"holdcsim/internal/rng"
)

// Sampler draws one value (a service time in seconds, a transfer size in
// bytes, ...) from a distribution.
type Sampler interface {
	Sample(r *rng.Source) float64
	// Mean reports the distribution's expected value, used by the
	// experiments to convert utilization targets into arrival rates.
	Mean() float64
	String() string
}

// Exponential is memoryless with the given mean.
type Exponential struct {
	MeanValue float64
}

// Sample implements Sampler.
func (e Exponential) Sample(r *rng.Source) float64 { return r.Exp(e.MeanValue) }

// Mean implements Sampler.
func (e Exponential) Mean() float64 { return e.MeanValue }

func (e Exponential) String() string { return fmt.Sprintf("exp(mean=%g)", e.MeanValue) }

// Uniform draws from [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample implements Sampler.
func (u Uniform) Sample(r *rng.Source) float64 { return r.Uniform(u.Lo, u.Hi) }

// Mean implements Sampler.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform[%g,%g)", u.Lo, u.Hi) }

// Deterministic always returns Value.
type Deterministic struct {
	Value float64
}

// Sample implements Sampler.
func (d Deterministic) Sample(r *rng.Source) float64 { return d.Value }

// Mean implements Sampler.
func (d Deterministic) Mean() float64 { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("det(%g)", d.Value) }

// LogNormal is parameterized by the mean Mu and deviation Sigma of the
// underlying normal.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample implements Sampler.
func (l LogNormal) Sample(r *rng.Source) float64 { return r.LogNormal(l.Mu, l.Sigma) }

// Mean implements Sampler.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

func (l LogNormal) String() string { return fmt.Sprintf("lognormal(μ=%g,σ=%g)", l.Mu, l.Sigma) }

// Pareto is heavy-tailed with minimum Xm and shape Alpha.
type Pareto struct {
	Xm, Alpha float64
}

// Sample implements Sampler.
func (p Pareto) Sample(r *rng.Source) float64 { return r.Pareto(p.Xm, p.Alpha) }

// Mean implements Sampler.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (p Pareto) String() string { return fmt.Sprintf("pareto(xm=%g,α=%g)", p.Xm, p.Alpha) }

// Weibull has scale λ (Scale) and shape k (Shape). Shape < 1 models
// infant-mortality lifetimes, shape 1 reduces to the exponential, and
// shape > 1 models wear-out — the three regimes MTTF renewal processes
// draw component lifetimes from. Sampling is by inverse CDF so one
// uniform draw per sample keeps replay arithmetic stable.
type Weibull struct {
	Scale, Shape float64
}

// WeibullFromMean returns a Weibull with the given shape whose mean is
// mean (scale = mean / Γ(1+1/k)). Shape <= 0 is treated as shape 1
// (exponential), the renewal spec's "unset" encoding.
func WeibullFromMean(mean, shape float64) Weibull {
	if shape <= 0 {
		shape = 1
	}
	return Weibull{Scale: mean / math.Gamma(1+1/shape), Shape: shape}
}

// Sample implements Sampler.
func (w Weibull) Sample(r *rng.Source) float64 {
	// Inverse CDF: λ·(-ln(1-U))^(1/k). 1-U ∈ (0,1] keeps the log finite.
	return w.Scale * math.Pow(-math.Log(1-r.Float64()), 1/w.Shape)
}

// Mean implements Sampler.
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

func (w Weibull) String() string { return fmt.Sprintf("weibull(λ=%g,k=%g)", w.Scale, w.Shape) }

// MMPP2 is a 2-state Markov-Modulated Poisson Process (paper Sec. III-D):
// arrivals are Poisson with rate LambdaH during exponentially distributed
// bursts of mean MeanBurst seconds, and rate LambdaL during quiet periods
// of mean MeanQuiet seconds. The burstiness ratio Ra = LambdaH/LambdaL
// and duty cycle MeanBurst/(MeanBurst+MeanQuiet) are the two knobs the
// paper sweeps.
type MMPP2 struct {
	LambdaH, LambdaL     float64
	MeanBurst, MeanQuiet float64

	high    bool
	started bool
	sojourn float64 // virtual seconds left in the current state
}

// NewMMPP2 validates and returns a 2-state MMPP starting in the
// high-rate (burst) state.
func NewMMPP2(lambdaH, lambdaL, meanBurst, meanQuiet float64) (*MMPP2, error) {
	if lambdaH <= 0 || lambdaL <= 0 {
		return nil, fmt.Errorf("dist: MMPP2 rates must be positive (λH=%g, λL=%g)", lambdaH, lambdaL)
	}
	if lambdaH < lambdaL {
		return nil, fmt.Errorf("dist: MMPP2 burst rate λH=%g below quiet rate λL=%g", lambdaH, lambdaL)
	}
	if meanBurst <= 0 || meanQuiet <= 0 {
		return nil, fmt.Errorf("dist: MMPP2 state durations must be positive (burst=%g, quiet=%g)", meanBurst, meanQuiet)
	}
	return &MMPP2{LambdaH: lambdaH, LambdaL: lambdaL, MeanBurst: meanBurst, MeanQuiet: meanQuiet}, nil
}

// Next returns the interval in seconds until the next arrival, advancing
// the modulating chain through any state flips that occur in between.
func (m *MMPP2) Next(r *rng.Source) float64 {
	if !m.started {
		m.started = true
		m.high = true
		m.sojourn = r.Exp(m.MeanBurst)
	}
	var elapsed float64
	for {
		rate := m.LambdaL
		if m.high {
			rate = m.LambdaH
		}
		gap := r.Exp(1 / rate)
		if gap <= m.sojourn {
			m.sojourn -= gap
			return elapsed + gap
		}
		// The state flips before the candidate arrival; the memoryless
		// property lets us redraw the arrival gap in the new state.
		elapsed += m.sojourn
		m.high = !m.high
		if m.high {
			m.sojourn = r.Exp(m.MeanBurst)
		} else {
			m.sojourn = r.Exp(m.MeanQuiet)
		}
	}
}

func (m *MMPP2) String() string {
	return fmt.Sprintf("mmpp2(λH=%g,λL=%g,burst=%gs,quiet=%gs)", m.LambdaH, m.LambdaL, m.MeanBurst, m.MeanQuiet)
}
