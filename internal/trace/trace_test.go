package trace

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"holdcsim/internal/rng"
)

// perSecond buckets a validated trace's arrivals into 1-second bins: the
// load signal the synthetic-shape tests read.
func perSecond(tr *Trace) []int {
	bins := make([]int, int(tr.Duration())+1)
	for _, x := range tr.Times {
		bins[int(x)]++
	}
	return bins
}

func TestTraceBasics(t *testing.T) {
	tr := &Trace{Times: []float64{0.5, 1.0, 2.5, 9.5}}
	if tr.Len() != 4 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Duration() != 9.5 {
		t.Errorf("Duration = %v", tr.Duration())
	}
	if math.Abs(tr.MeanRate()-4/9.5) > 1e-12 {
		t.Errorf("MeanRate = %v", tr.MeanRate())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if tr.Duration() != 0 || tr.MeanRate() != 0 {
		t.Error("empty trace should report zeros")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	if err := (&Trace{Times: []float64{-1}}).Validate(); err == nil {
		t.Error("negative timestamp accepted")
	}
	if err := (&Trace{Times: []float64{2, 1}}).Validate(); err == nil {
		t.Error("decreasing timestamps accepted")
	}
}

func TestScale(t *testing.T) {
	tr := &Trace{Times: []float64{1, 2, 4}}
	tr.Scale(0.5)
	want := []float64{0.5, 1, 2}
	for i, x := range tr.Times {
		if x != want[i] {
			t.Errorf("Times[%d] = %v", i, x)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Scale(0) did not panic")
		}
	}()
	tr.Scale(0)
}

func TestClip(t *testing.T) {
	tr := &Trace{Times: []float64{0, 1, 2, 3, 4, 5}}
	c, err := tr.Clip(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 2}
	if len(c.Times) != 3 {
		t.Fatalf("Clip len = %d", len(c.Times))
	}
	for i, x := range c.Times {
		if x != want[i] {
			t.Errorf("Clip[%d] = %v", i, x)
		}
	}
}

func TestReadCapped(t *testing.T) {
	if _, err := ReadCapped(strings.NewReader("1\n2\n3\n"), 2); err == nil {
		t.Error("3 arrivals accepted under a cap of 2")
	}
	tr, err := ReadCapped(strings.NewReader("1\n2\n"), 2)
	if err != nil || tr.Len() != 2 {
		t.Errorf("cap-sized input rejected: %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	tr := &Trace{Times: []float64{0.25, 1.5, 3.75}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("round trip len = %d", back.Len())
	}
	for i := range tr.Times {
		if math.Abs(back.Times[i]-tr.Times[i]) > 1e-6 {
			t.Errorf("round trip [%d]: %v vs %v", i, back.Times[i], tr.Times[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1.0\n # another\n2.0\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("abc\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader("2.0\n1.0\n")); err == nil {
		t.Error("unsorted trace accepted")
	}
}

func TestSyntheticWikipediaShape(t *testing.T) {
	tr := SyntheticWikipedia(2000, 50, rng.New(42))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mean rate should be near the configured mean.
	if rate := tr.MeanRate(); math.Abs(rate-50)/50 > 0.15 {
		t.Errorf("mean rate = %v, want ~50", rate)
	}
	// The diurnal swing must be visible: smoothed max/min rate ratio > 1.3.
	bins := perSecond(tr)
	window := 50
	var smoothed []float64
	for i := 0; i+window <= len(bins); i += window {
		sum := 0
		for _, b := range bins[i : i+window] {
			sum += b
		}
		smoothed = append(smoothed, float64(sum)/float64(window))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range smoothed {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi/math.Max(lo, 1e-9) < 1.3 {
		t.Errorf("diurnal swing too small: min=%v max=%v", lo, hi)
	}
}

func TestSyntheticWikipediaDeterministic(t *testing.T) {
	a := SyntheticWikipedia(500, 20, rng.New(7))
	b := SyntheticWikipedia(500, 20, rng.New(7))
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestSyntheticNLANRBursty(t *testing.T) {
	tr := SyntheticNLANR(2000, 40, 2, rng.New(11))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 100 {
		t.Fatalf("trace too short: %d", tr.Len())
	}
	// Burstiness check: index of dispersion of per-second counts should
	// exceed 1 (Poisson would be ~1).
	bins := perSecond(tr)
	var sum, sumSq float64
	for _, b := range bins {
		sum += float64(b)
		sumSq += float64(b) * float64(b)
	}
	n := float64(len(bins))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if iod := variance / mean; iod < 1.5 {
		t.Errorf("index of dispersion = %v, want bursty (> 1.5)", iod)
	}
}

// NLANRMeanRate is the long-run rate SyntheticNLANR draws at: scenario
// validation caps a synthetic trace's arrival count with it.
func TestNLANRMeanRate(t *testing.T) {
	const dur = 20000.0
	want := NLANRMeanRate(40, 2)
	for seed := uint64(1); seed <= 4; seed++ {
		got := float64(SyntheticNLANR(dur, 40, 2, rng.New(seed)).Len()) / dur
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("seed %d: mean rate %.2f/s, NLANRMeanRate %.2f/s", seed, got, want)
		}
	}
}

// Property: synthetic traces are always sorted and nonnegative.
func TestSyntheticSortedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		wiki := SyntheticWikipedia(100, 10, r.Split("w"))
		nlanr := SyntheticNLANR(100, 40, 2, r.Split("n"))
		for _, tr := range []*Trace{wiki, nlanr} {
			if !sort.Float64sAreSorted(tr.Times) {
				return false
			}
			if tr.Len() > 0 && tr.Times[0] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: Clip never yields timestamps outside [0, to-from).
func TestClipProperty(t *testing.T) {
	f := func(seed uint64, a, b uint8) bool {
		r := rng.New(seed)
		tr := SyntheticWikipedia(60, 5, r)
		from, to := float64(a%60), float64(b%60)
		if from > to {
			from, to = to, from
		}
		c, err := tr.Clip(from, to)
		if err != nil {
			return false
		}
		for _, x := range c.Times {
			if x < 0 || x >= to-from {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
