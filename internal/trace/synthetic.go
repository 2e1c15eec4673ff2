package trace

import (
	"math"
	"sort"

	"holdcsim/internal/rng"
)

// The synthetic Wikipedia-like trace follows the published analyses of
// the Wikipedia workload [59]: a strong diurnal cycle with roughly 2:1
// peak-to-trough swing, ~10% short-term jitter, and occasional flash
// crowds.
const (
	wikiDiurnalAmp = 0.35   // fractional amplitude of the 24h sinusoid, [0,1)
	wikiWeeklyAmp  = 0.08   // fractional amplitude of the 7-day modulation
	wikiNoiseAmp   = 0.10   // fractional stddev of per-second Gaussian jitter
	wikiFlashProb  = 0.0005 // probability per second of starting a flash crowd
	wikiFlashBoost = 2.5    // rate multiplier during a flash crowd
)

// SyntheticWikipedia generates a Wikipedia-like arrival trace of the
// given length (seconds) and mean rate (arrivals/second over the whole
// trace). The "day" is compressed so that at least two fit in the trace
// (the Fig. 4 provisioning study needs visible load swings within the
// simulated window). The rate function is evaluated per one-second
// bucket; within a bucket, arrivals are a Poisson process at the bucket
// rate (uniform placement), which matches how per-second trace replays
// treat the original trace.
func SyntheticWikipedia(duration, meanRate float64, r *rng.Source) *Trace {
	day := 86400.0
	if duration < 2*day {
		day = duration / 2
	}
	if day <= 0 {
		day = 1
	}
	nBuckets := int(math.Ceil(duration))
	times := make([]float64, 0, int(duration*meanRate)+16)
	flashUntil := -1.0
	for b := 0; b < nBuckets; b++ {
		t0 := float64(b)
		rate := meanRate
		// Diurnal + weekly modulation.
		rate *= 1 + wikiDiurnalAmp*math.Sin(2*math.Pi*t0/day)
		rate *= 1 + wikiWeeklyAmp*math.Sin(2*math.Pi*t0/(7*day))
		// Short-term jitter.
		rate *= math.Max(0.05, 1+r.Normal(0, wikiNoiseAmp))
		// Flash crowds, each day/48 long.
		if t0 < flashUntil {
			rate *= wikiFlashBoost
		} else if r.Bernoulli(wikiFlashProb) {
			flashUntil = t0 + day/48
			rate *= wikiFlashBoost
		}
		n := r.Poisson(rate)
		for i := 0; i < n; i++ {
			times = append(times, t0+r.Float64())
		}
	}
	sort.Float64s(times)
	return &Trace{Times: times}
}

// The synthetic NLANR-like HTTP trace is a heavy-tailed ON/OFF process:
// during ON periods requests arrive as a Poisson burst; OFF periods are
// Pareto-distributed, producing the self-similar burstiness observed in
// NLANR web traces.
const (
	nlanrMeanOn   = 2.0 // mean ON period, seconds (exponential)
	nlanrOffXm    = 0.5 // Pareto minimum OFF period, seconds
	nlanrOffAlpha = 1.5 // Pareto shape for OFF periods (1 < α ≤ 2 heavy)
)

// NLANRMeanRate is SyntheticNLANR's long-run arrival rate: the
// background plus onRate over the ON share of a cycle (mean OFF period
// xm·α/(α−1)).
func NLANRMeanRate(onRate, background float64) float64 {
	off := nlanrOffXm * nlanrOffAlpha / (nlanrOffAlpha - 1)
	return background + onRate*nlanrMeanOn/(nlanrMeanOn+off)
}

// SyntheticNLANR generates an NLANR-like bursty arrival trace of the
// given length (seconds): onRate arrivals/second during ON periods over
// a constant background of background arrivals/second.
func SyntheticNLANR(duration, onRate, background float64, r *rng.Source) *Trace {
	var times []float64
	// Background Poisson stream.
	for t := r.Exp(1 / background); t < duration; t += r.Exp(1 / background) {
		times = append(times, t)
	}
	// ON/OFF foreground.
	t := 0.0
	for t < duration {
		on := r.Exp(nlanrMeanOn)
		end := math.Min(t+on, duration)
		for a := t + r.Exp(1/onRate); a < end; a += r.Exp(1 / onRate) {
			times = append(times, a)
		}
		t = end + r.Pareto(nlanrOffXm, nlanrOffAlpha)
	}
	sort.Float64s(times)
	return &Trace{Times: times}
}
