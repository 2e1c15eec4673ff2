package dist

import (
	"math"
	"testing"

	"holdcsim/internal/rng"
)

// Mean is the distribution's expected value, λ·Γ(1+1/k): what
// WeibullFromMean inverts.
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

func TestWeibullFromMean(t *testing.T) {
	// Shape 1 is the exponential: scale == mean.
	w := WeibullFromMean(2, 1)
	if math.Abs(w.Scale-2) > 1e-12 || w.Shape != 1 {
		t.Errorf("WeibullFromMean(2, 1) = %+v, want scale 2 shape 1", w)
	}
	if got := w.Mean(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %g, want 2", got)
	}
	// Nonpositive shape falls back to exponential.
	if w := WeibullFromMean(3, 0); w.Shape != 1 || math.Abs(w.Mean()-3) > 1e-12 {
		t.Errorf("WeibullFromMean(3, 0) = %+v, want exponential mean 3", w)
	}
	if w := WeibullFromMean(3, -2); w.Shape != 1 {
		t.Errorf("WeibullFromMean(3, -2).Shape = %g, want 1", w.Shape)
	}
	// Mean inverts the Gamma scaling for any shape.
	for _, k := range []float64{0.7, 1.4, 2.5} {
		w := WeibullFromMean(5, k)
		if got := w.Mean(); math.Abs(got-5) > 1e-9 {
			t.Errorf("WeibullFromMean(5, %g).Mean() = %g, want 5", k, got)
		}
	}
}

func TestWeibullSampleMean(t *testing.T) {
	r := rng.New(42)
	for _, k := range []float64{1, 1.8} {
		w := WeibullFromMean(2, k)
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			x := w.Sample(r)
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("shape %g: sample %g out of range", k, x)
			}
			sum += x
		}
		if got := sum / n; math.Abs(got-2) > 0.1 {
			t.Errorf("shape %g: sample mean = %g, want ~2", k, got)
		}
	}
}

func TestWeibullDeterministic(t *testing.T) {
	w := WeibullFromMean(1.5, 2)
	a, b := rng.New(7), rng.New(7)
	for i := 0; i < 100; i++ {
		if x, y := w.Sample(a), w.Sample(b); x != y {
			t.Fatalf("draw %d: %g != %g from identical streams", i, x, y)
		}
	}
}
