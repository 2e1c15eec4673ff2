package validate

import (
	"math"
	"testing"

	"holdcsim/internal/rng"
	"holdcsim/internal/stats"
	"holdcsim/internal/trace"
)

func TestReferenceServerTracksLoad(t *testing.T) {
	cfg := DefaultReferenceServer()
	cfg.NoiseW = 0 // deterministic for shape checks
	cfg.OSBaseW = 0
	cfg.OSBurstProb = 0
	r := rng.New(1)
	// Low-rate then high-rate halves.
	var times []float64
	for s := 0.0; s < 100; s += 1.0 {
		times = append(times, s)
	}
	for s := 100.0; s < 200; s += 0.002 { // 500 req/s = 4 busy cores
		times = append(times, s)
	}
	tr := &trace.Trace{Times: times}
	ref := ReferenceServerPower(tr, cfg, r)
	if len(ref) < 200 {
		t.Fatalf("samples = %d", len(ref))
	}
	lowMean := mean(ref[10:90])
	highMean := mean(ref[110:190])
	if highMean <= lowMean+5 {
		t.Errorf("power did not track load: low=%v high=%v", lowMean, highMean)
	}
}

func TestReferenceVsSimulatedClose(t *testing.T) {
	// With modest noise, the reference and the analytic simulated series
	// must sit within a ~1 W band — the validation claim of Fig. 12.
	cfg := DefaultReferenceServer()
	r := rng.New(2)
	tr := trace.SyntheticNLANR(1000, 40, 2, r.Split("trace"))
	ref := ReferenceServerPower(tr, cfg, r.Split("ref"))
	sim := simulatedServerPower(tr, cfg)
	mad, sd := stats.CompareSeries(sim, ref)
	if mad > 1.5 {
		t.Errorf("mean abs diff = %v W, want < 1.5", mad)
	}
	if sd <= 0 || sd > 2.5 {
		t.Errorf("stddev of diff = %v W", sd)
	}
}

func TestReferenceServerClipsAtCapacity(t *testing.T) {
	cfg := DefaultReferenceServer()
	cfg.NoiseW = 0
	cfg.OSBaseW = 0
	cfg.OSBurstProb = 0
	r := rng.New(3)
	// Overload: 10,000 requests in one second on a 10-core box.
	var times []float64
	for i := 0; i < 10000; i++ {
		times = append(times, float64(i)/10000)
	}
	tr := &trace.Trace{Times: times}
	ref := ReferenceServerPower(tr, cfg, r)
	maxW := float64(cfg.Profile.Cores)*cfg.Profile.CoreActive + cfg.Profile.PkgPC0
	if ref[0] > maxW+1e-9 {
		t.Errorf("sample %v exceeds package max %v", ref[0], maxW)
	}
}

func TestReferenceSwitchBaseAndSlope(t *testing.T) {
	cfg := DefaultReferenceSwitch()
	cfg.NoiseW = 0
	cfg.DriftProb = 0
	r := rng.New(4)
	ports := []int{0, 6, 12, 24}
	out := ReferenceSwitchPower(ports, cfg, r)
	if math.Abs(out[0]-14.7) > 1e-9 {
		t.Errorf("base = %v, want 14.7", out[0])
	}
	if math.Abs(out[3]-(14.7+24*0.23)) > 1e-9 {
		t.Errorf("full = %v, want 20.22", out[3])
	}
	// Linear in active ports.
	slope1 := out[1] - out[0]
	slope2 := out[2] - out[1]
	if math.Abs(slope1-slope2) > 1e-9 {
		t.Errorf("non-linear port slope: %v vs %v", slope1, slope2)
	}
}

func TestReferenceSwitchDriftSegments(t *testing.T) {
	cfg := DefaultReferenceSwitch()
	cfg.NoiseW = 0
	cfg.DriftProb = 0.01
	r := rng.New(5)
	ports := make([]int, 7200) // 2 hours at 1 Hz, all idle
	out := ReferenceSwitchPower(ports, cfg, r)
	drifted := 0
	for _, w := range out {
		if w > 14.7+0.1 {
			drifted++
		}
	}
	if drifted == 0 {
		t.Error("no drift segments produced")
	}
	if drifted == len(out) {
		t.Error("drift never ends")
	}
}

func TestReferenceDeterminism(t *testing.T) {
	cfg := DefaultReferenceServer()
	tr := trace.SyntheticNLANR(200, 40, 2, rng.New(6))
	a := ReferenceServerPower(tr, cfg, rng.New(7))
	b := ReferenceServerPower(tr, cfg, rng.New(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different reference series")
		}
	}
}

func mean(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// simulatedServerPower is the noise-free analytic oracle the reference
// model is held to: the simulator's utilization→power mapping (busy
// cores at active draw, idle cores in C6, package in PC0 while any core
// is busy), sampled per window. The event-driven comparison is
// internal/experiments' Fig. 12.
func simulatedServerPower(tr *trace.Trace, cfg ReferenceServerConfig) []float64 {
	prof := cfg.Profile
	nSamples := int(tr.Duration()/cfg.SampleSec) + 1
	offered := make([]float64, nSamples)
	for _, at := range tr.Times {
		idx := int(at / cfg.SampleSec)
		if idx < nSamples {
			offered[idx] += cfg.ServiceSec
		}
	}
	out := make([]float64, nSamples)
	cores := float64(prof.Cores)
	for i, o := range offered {
		util := o / cfg.SampleSec
		if util > cores {
			util = cores
		}
		pkgActiveFrac := 1.0
		if util == 0 {
			pkgActiveFrac = 0.05
		}
		out[i] = util*prof.CoreActive + (cores-util)*prof.CoreC6 +
			pkgActiveFrac*prof.PkgPC0 + (1-pkgActiveFrac)*prof.PkgPC6
	}
	return out
}
