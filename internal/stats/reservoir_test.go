package stats

import (
	"math"
	"testing"

	"holdcsim/internal/simtime"
)

// TestTallyUnboundedRetention is the failing-before half of the reservoir
// bugfix: the default NewTally retains every raw sample, so memory grows
// linearly with the stream, while a reservoir tally of the same stream
// stays at its capacity.
func TestTallyUnboundedRetention(t *testing.T) {
	const n = 200000
	unbounded := NewTally("unbounded")
	bounded := NewReservoirTally("bounded", 1024, 7)
	for i := 0; i < n; i++ {
		x := float64(i%997) / 997
		unbounded.Add(x)
		bounded.Add(x)
	}
	if got := len(unbounded.samples); got != n {
		t.Fatalf("NewTally retained %d samples, want %d (unbounded retention)", got, n)
	}
	if got := len(bounded.samples); got != 1024 {
		t.Fatalf("reservoir retained %d samples, want cap 1024", got)
	}
}

// Reservoir mode must keep moments, min, and max exact — only percentile
// queries are approximate.
func TestReservoirMomentsExact(t *testing.T) {
	exact := NewTally("exact")
	res := NewReservoirTally("res", 64, 3)
	for i := 0; i < 50000; i++ {
		x := math.Sin(float64(i)) * float64(i%13)
		exact.Add(x)
		res.Add(x)
	}
	if res.Count() != exact.Count() {
		t.Fatalf("Count: got %d want %d", res.Count(), exact.Count())
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Mean", res.Mean(), exact.Mean()},
		{"Variance", res.Variance(), exact.Variance()},
		{"Min", res.Min(), exact.Min()},
		{"Max", res.Max(), exact.Max()},
		{"Sum", res.Sum(), exact.Sum()},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
}

// The reservoir is a uniform sample, so its percentiles should land near
// the true ones for a large smooth stream.
func TestReservoirPercentileApproximation(t *testing.T) {
	res := NewReservoirTally("res", 4096, 11)
	const n = 100000
	for i := 0; i < n; i++ {
		res.Add(float64(i) / n) // uniform on [0,1)
	}
	for _, p := range []float64{10, 50, 90, 99} {
		got := res.Percentile(p)
		want := p / 100
		if math.Abs(got-want) > 0.03 {
			t.Errorf("p%.0f: got %.4f want ~%.4f", p, got, want)
		}
	}
	if cdf := res.CDF(16); len(cdf) != 16 {
		t.Errorf("CDF points: got %d want 16", len(cdf))
	}
}

// Reservoir replacement draws come from a private deterministic stream:
// same seed and sample sequence, same reservoir.
func TestReservoirDeterministic(t *testing.T) {
	a := NewReservoirTally("a", 128, 42)
	b := NewReservoirTally("b", 128, 42)
	c := NewReservoirTally("c", 128, 43)
	for i := 0; i < 10000; i++ {
		x := float64((i*2654435761)%8191) / 8191
		a.Add(x)
		b.Add(x)
		c.Add(x)
	}
	for _, p := range []float64{25, 50, 75} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("same-seed reservoirs diverge at p%.0f", p)
		}
	}
	diff := false
	for _, p := range []float64{5, 25, 50, 75, 95} {
		if a.Percentile(p) != c.Percentile(p) {
			diff = true
		}
	}
	if !diff {
		t.Fatalf("different seeds produced identical reservoirs at every probe")
	}
}

// Interleaving Percentile queries (which sort the reservoir in place) with
// further Adds must not corrupt the sample count or bounds.
func TestReservoirQueryDuringStream(t *testing.T) {
	res := NewReservoirTally("res", 32, 5)
	for i := 0; i < 1000; i++ {
		res.Add(float64(i))
		if i%100 == 50 {
			if got := res.Percentile(50); got < 0 || got > float64(i) {
				t.Fatalf("mid-stream median %v out of range [0,%d]", got, i)
			}
		}
	}
	if len(res.samples) != 32 {
		t.Fatalf("retained %d want 32", len(res.samples))
	}
	if res.Min() != 0 || res.Max() != 999 {
		t.Fatalf("min/max drifted: %v/%v", res.Min(), res.Max())
	}
}

func TestReservoirDegenerateCapacity(t *testing.T) {
	res := NewReservoirTally("tiny", 0, 0) // clamps to 1; seed 0 must work
	for i := 0; i < 100; i++ {
		res.Add(float64(i))
	}
	if len(res.samples) != 1 {
		t.Fatalf("retained %d want 1", len(res.samples))
	}
	if res.Count() != 100 {
		t.Fatalf("count %d want 100", res.Count())
	}
}

// AddFractionsTo must agree bit-for-bit with FractionsTo, since core result
// collection aggregates residency fractions across servers and the goldens
// pin those sums byte-identically.
func TestAddFractionsToMatchesFractionsTo(t *testing.T) {
	mk := func() *Residency {
		r := NewResidency("srv")
		r.SetState(0, "idle")
		r.SetState(simtime.Time(1500), "active")
		r.SetState(simtime.Time(2750), "idle")
		r.SetState(simtime.Time(2750), "c1")
		r.SetState(simtime.Time(9001), "c1") // re-entry keeps interval open
		return r
	}
	at := simtime.Time(12345)

	r1, r2 := mk(), mk()
	want := r1.FractionsTo(at)
	got := make(map[string]float64)
	r2.AddFractionsTo(at, got)
	if len(got) != len(want) {
		t.Fatalf("state sets differ: got %v want %v", got, want)
	}
	for s, w := range want {
		if got[s] != w {
			t.Errorf("state %q: got %v want %v (must be bit-identical)", s, got[s], w)
		}
	}

	// Accumulation across trackers equals the sum of individual maps,
	// added in the same order.
	acc := make(map[string]float64)
	r1b, r2b := mk(), mk()
	r2b.SetState(simtime.Time(12000), "wake")
	r1b.AddFractionsTo(at, acc)
	r2b.AddFractionsTo(at, acc)
	wantAcc := make(map[string]float64)
	for s, v := range r1b.FractionsTo(at) {
		wantAcc[s] += v
	}
	for s, v := range r2b.FractionsTo(at) {
		wantAcc[s] += v
	}
	for s, w := range wantAcc {
		if acc[s] != w {
			t.Errorf("accumulated state %q: got %v want %v", s, acc[s], w)
		}
	}
	var before *Residency = NewResidency("unstarted")
	before.AddFractionsTo(at, acc) // must be a no-op, not a panic
}

// AddFractionsTo on a steady-state tracker must not allocate: it is called
// once per server during result collection at hyperscale.
func TestAddFractionsToZeroAlloc(t *testing.T) {
	r := NewResidency("srv")
	r.SetState(0, "idle")
	r.SetState(simtime.Time(1000), "active")
	r.SetState(simtime.Time(2000), "idle")
	into := make(map[string]float64, 8)
	at := simtime.Time(5000)
	r.AddFractionsTo(at, into) // populate keys so map never grows below
	allocs := testing.AllocsPerRun(100, func() {
		r.AddFractionsTo(at, into)
	})
	if allocs != 0 {
		t.Fatalf("AddFractionsTo allocates %v per call, want 0", allocs)
	}
}
