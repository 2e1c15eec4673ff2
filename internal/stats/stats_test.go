package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"holdcsim/internal/simtime"
)

func TestTallyMoments(t *testing.T) {
	ta := NewTally("x")
	for _, v := range []float64{1, 2, 3, 4, 5} {
		ta.Add(v)
	}
	if ta.Count() != 5 {
		t.Errorf("Count = %d", ta.Count())
	}
	if ta.Mean() != 3 {
		t.Errorf("Mean = %v", ta.Mean())
	}
	if math.Abs(ta.Variance()-2.5) > 1e-12 {
		t.Errorf("Variance = %v, want 2.5", ta.Variance())
	}
	if ta.Min() != 1 || ta.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", ta.Min(), ta.Max())
	}
	if ta.Sum() != 15 {
		t.Errorf("Sum = %v", ta.Sum())
	}
}

func TestTallyEmpty(t *testing.T) {
	ta := NewTally("empty")
	if ta.Mean() != 0 || ta.Variance() != 0 || ta.Percentile(50) != 0 {
		t.Error("empty tally should report zeros")
	}
	if ta.CDF(10) != nil {
		t.Error("empty tally CDF should be nil")
	}
}

func TestTallyPercentiles(t *testing.T) {
	ta := NewTally("p")
	for i := 1; i <= 100; i++ {
		ta.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {90, 90.1}, {95, 95.05},
	}
	for _, c := range cases {
		if got := ta.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTallyPercentileUnsortedInsertions(t *testing.T) {
	ta := NewTally("p")
	for _, v := range []float64{9, 1, 5, 3, 7} {
		ta.Add(v)
	}
	if got := ta.Percentile(50); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	// Adding after a percentile query must keep ordering correct.
	ta.Add(0)
	if got := ta.Percentile(0); got != 0 {
		t.Errorf("min after re-add = %v, want 0", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	ta := NewTally("cdf")
	for _, v := range []float64{5, 1, 9, 3, 3, 7, 2, 8} {
		ta.Add(v)
	}
	pts := ta.CDF(6)
	if len(pts) == 0 {
		t.Fatal("no CDF points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F < pts[i-1].F {
			t.Fatalf("CDF not monotone: %+v", pts)
		}
	}
	if pts[len(pts)-1].F != 1 {
		t.Errorf("final F = %v, want 1", pts[len(pts)-1].F)
	}
}

// Property: percentile is within [min, max] and monotone in p.
func TestPercentileProperty(t *testing.T) {
	f := func(vals []float64, pa, pb uint8) bool {
		if len(vals) == 0 {
			return true
		}
		ta := NewTally("prop")
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			ta.Add(v)
		}
		a := float64(pa) / 2.55 // ~[0,100]
		b := float64(pb) / 2.55
		if a > b {
			a, b = b, a
		}
		va, vb := ta.Percentile(a), ta.Percentile(b)
		return va <= vb && va >= ta.Min() && vb <= ta.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	w := NewTimeWeighted("load")
	w.Start(0, 2)
	w.Set(10*simtime.Second, 4)
	w.Set(20*simtime.Second, 0)
	// integral to 30s: 2*10 + 4*10 + 0*10 = 60
	if got := w.IntegralTo(30 * simtime.Second); math.Abs(got-60) > 1e-9 {
		t.Errorf("integral = %v, want 60", got)
	}
}

func TestTimeWeightedAdjustAndFirstSet(t *testing.T) {
	w := NewTimeWeighted("n")
	w.Set(5*simtime.Second, 1) // first Set acts as Start
	w.Set(10*simtime.Second, 3)
	w.Set(15*simtime.Second, 0)
	if w.value != 0 {
		t.Errorf("value = %v, want 0", w.value)
	}
	// 1*5 + 3*5 + 0*5 = 20 over [5s, 25s]
	if got := w.IntegralTo(25 * simtime.Second); math.Abs(got-20) > 1e-9 {
		t.Errorf("integral = %v, want 20", got)
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	w := NewTimeWeighted("bad")
	w.Start(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards Set did not panic")
		}
	}()
	w.Set(5, 2)
}

func TestResidency(t *testing.T) {
	r := NewResidency("srv")
	r.SetState(0, "Active")
	r.SetState(10*simtime.Second, "Idle")
	r.SetState(15*simtime.Second, "Sleep")
	end := 20 * simtime.Second
	if d := r.DurationTo("Active", end); d != 10*simtime.Second {
		t.Errorf("Active = %v", d)
	}
	if d := r.DurationTo("Idle", end); d != 5*simtime.Second {
		t.Errorf("Idle = %v", d)
	}
	if d := r.DurationTo("Sleep", end); d != 5*simtime.Second {
		t.Errorf("Sleep = %v", d)
	}
	fr := r.FractionsTo(end)
	if math.Abs(fr["Active"]-0.5) > 1e-9 || math.Abs(fr["Idle"]-0.25) > 1e-9 {
		t.Errorf("fractions = %v", fr)
	}
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
	states := r.States()
	if !sort.StringsAreSorted(states) || len(states) != 3 {
		t.Errorf("States = %v", states)
	}
}

func TestResidencyReentry(t *testing.T) {
	r := NewResidency("srv")
	r.SetState(0, "A")
	r.SetState(5*simtime.Second, "A") // re-enter same state
	r.SetState(10*simtime.Second, "B")
	if d := r.DurationTo("A", 10*simtime.Second); d != 10*simtime.Second {
		t.Errorf("A duration = %v, want 10s", d)
	}
}

// TestResidencyReentryUnflushed pins the same-state fast path: time
// accumulated by re-entering the current state must be visible through
// DurationTo, FractionsTo and States *before* any state change flushes
// it to the duration map.
func TestResidencyReentryUnflushed(t *testing.T) {
	r := NewResidency("srv")
	r.SetState(0, "A")
	r.SetState(4*simtime.Second, "A")
	r.SetState(6*simtime.Second, "A")
	// No transition yet: 6 s of "A" live only in the open interval.
	if d := r.DurationTo("A", 10*simtime.Second); d != 10*simtime.Second {
		t.Errorf("A duration = %v, want 10s", d)
	}
	if fr := r.FractionsTo(10 * simtime.Second); math.Abs(fr["A"]-1) > 1e-9 {
		t.Errorf("fractions = %v, want A=1", fr)
	}
	if states := r.States(); len(states) != 1 || states[0] != "A" {
		t.Errorf("States = %v, want [A]", states)
	}
	// The flush on a real transition must not double-count.
	r.SetState(8*simtime.Second, "B")
	if d := r.DurationTo("A", 10*simtime.Second); d != 8*simtime.Second {
		t.Errorf("A duration after flush = %v, want 8s", d)
	}
	if d := r.DurationTo("B", 10*simtime.Second); d != 2*simtime.Second {
		t.Errorf("B duration = %v, want 2s", d)
	}
}

// Property: residency fractions always sum to ~1 for any transition seq.
func TestResidencyFractionSumProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		r := NewResidency("p")
		now := simtime.Time(0)
		states := []string{"A", "B", "C", "D"}
		r.SetState(now, "A")
		for _, s := range steps {
			now += simtime.Time(s%100+1) * simtime.Millisecond
			r.SetState(now, states[int(s)%len(states)])
		}
		end := now + simtime.Second
		sum := 0.0
		for _, fr := range r.FractionsTo(end) {
			sum += fr
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEnergyMeter(t *testing.T) {
	m := NewEnergyMeter("cpu")
	m.SetPower(0, 100)
	m.SetPower(10*simtime.Second, 50)
	if got := m.EnergyTo(20 * simtime.Second); math.Abs(got-1500) > 1e-9 {
		t.Errorf("energy = %v J, want 1500", got)
	}
	if m.tw.value != 50 {
		t.Errorf("current power = %v", m.tw.value)
	}
}

func TestCompareSeries(t *testing.T) {
	a := []float64{10, 20, 30, 40}
	b := []float64{11, 19, 31, 39}
	mad, sd := CompareSeries(a, b)
	if math.Abs(mad-1) > 1e-9 {
		t.Errorf("meanAbsDiff = %v, want 1", mad)
	}
	if sd <= 0 {
		t.Errorf("stdDiff = %v, want > 0", sd)
	}
	// Identical series.
	mad, sd = CompareSeries(a, a)
	if mad != 0 || sd != 0 {
		t.Errorf("identical series: mad=%v sd=%v", mad, sd)
	}
	// Empty.
	if m, s := CompareSeries(nil, nil); m != 0 || s != 0 {
		t.Errorf("empty series: %v %v", m, s)
	}
	// Unequal lengths truncate.
	if m, _ := CompareSeries([]float64{1, 2, 3}, []float64{1}); m != 0 {
		t.Errorf("truncated compare = %v", m)
	}
}

// Property: EnergyMeter integral of constant power p over t seconds is p*t.
func TestEnergyMeterLinearityProperty(t *testing.T) {
	f := func(p uint16, secs uint8) bool {
		m := NewEnergyMeter("p")
		m.SetPower(0, float64(p))
		end := simtime.Time(secs) * simtime.Second
		got := m.EnergyTo(end)
		want := float64(p) * float64(secs)
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
