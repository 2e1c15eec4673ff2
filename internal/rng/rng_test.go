package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/100 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(7).Split("arrivals")
	b := New(7).Split("arrivals")
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split with same label diverged")
		}
	}
}

func TestSplitIndependent(t *testing.T) {
	parent := New(7)
	a := parent.Split("arrivals")
	b := parent.Split("service")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams matched %d/100 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Errorf("Exp(3) sample mean = %v", mean)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(13)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 || math.Abs(sd-2) > 0.05 {
		t.Errorf("Normal(10,2): mean=%v sd=%v", mean, sd)
	}
}

func TestParetoSupport(t *testing.T) {
	s := New(19)
	for i := 0; i < 10000; i++ {
		if v := s.Pareto(1.5, 2.0); v < 1.5 {
			t.Fatalf("Pareto(1.5, 2) = %v below xm", v)
		}
	}
}

func TestParetoMean(t *testing.T) {
	s := New(23)
	const n = 500000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Pareto(1, 3) // mean = 3/(3-1) = 1.5
	}
	mean := sum / n
	if math.Abs(mean-1.5) > 0.02 {
		t.Errorf("Pareto(1,3) sample mean = %v, want ~1.5", mean)
	}
}

func TestPoissonSmallMean(t *testing.T) {
	s := New(29)
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Poisson(4.5)
	}
	mean := float64(sum) / n
	if math.Abs(mean-4.5) > 0.05 {
		t.Errorf("Poisson(4.5) sample mean = %v", mean)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	s := New(31)
	const n = 50000
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Poisson(200)
	}
	mean := float64(sum) / n
	if math.Abs(mean-200) > 1 {
		t.Errorf("Poisson(200) sample mean = %v", mean)
	}
}

func TestPoissonZeroMean(t *testing.T) {
	s := New(37)
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestBernoulli(t *testing.T) {
	s := New(41)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestIntNPerm(t *testing.T) {
	s := New(43)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.IntN(10)
		if v < 0 || v >= 10 {
			t.Fatalf("IntN(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("IntN(10) covered %d values", len(seen))
	}
	p := s.Perm(8)
	mark := make([]bool, 8)
	for _, v := range p {
		mark[v] = true
	}
	for i, m := range mark {
		if !m {
			t.Errorf("Perm(8) missing %d: %v", i, p)
		}
	}
}
