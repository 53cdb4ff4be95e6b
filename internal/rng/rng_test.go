package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestKnownSplitMixValues(t *testing.T) {
	// Reference values for SplitMix64 seeded with 1234567, from the
	// public-domain reference implementation by Sebastiano Vigna.
	s := New(1234567)
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	for i, w := range want {
		if g := s.Uint64(); g != w {
			t.Fatalf("value %d: got %d, want %d", i, g, w)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(2.5, 7.5)
		if v < 2.5 || v >= 7.5 {
			t.Fatalf("Uniform(2.5, 7.5) = %v out of range", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(2)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(67)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %v", frac)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
}

func TestPanicsOnBadDistributionArgs(t *testing.T) {
	s := New(71)
	for name, f := range map[string]func(){
		"Uniform":                func() { s.Uniform(2, 1) },
		"Exp":                    func() { s.Exp(0) },
		"BoundedFactor":          func() { s.BoundedFactor(0.9) },
		"ClampedLogNormal-alpha": func() { s.ClampedLogNormalFactor(0.9, 1) },
		"ClampedLogNormal-sigma": func() { s.ClampedLogNormalFactor(2, -1) },
		"NewZipf-n":              func() { NewZipf(s, 0, 1) },
		"NewZipf-theta":          func() { NewZipf(s, 5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestZipfN(t *testing.T) {
	z := NewZipf(New(73), 42, 1)
	if z.N() != 42 {
		t.Fatalf("N = %d", z.N())
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	child := parent.Split()
	a, b := parent.Uint64(), child.Uint64()
	if a == b {
		t.Fatal("Split child mirrors parent stream")
	}
}

func TestBoundedFactorRange(t *testing.T) {
	s := New(29)
	f := func(seed uint16) bool {
		alpha := 1 + float64(seed%300)/100 // alpha in [1, 4)
		v := s.BoundedFactor(alpha)
		return v >= 1/alpha-1e-12 && v <= alpha+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedFactorAlphaOne(t *testing.T) {
	s := New(31)
	for i := 0; i < 100; i++ {
		if v := s.BoundedFactor(1); v != 1 {
			t.Fatalf("BoundedFactor(1) = %v, want 1", v)
		}
	}
}

func TestBoundedFactorSymmetry(t *testing.T) {
	s := New(37)
	const n = 100000
	sumLog := 0.0
	for i := 0; i < n; i++ {
		sumLog += math.Log(s.BoundedFactor(2))
	}
	if mean := sumLog / n; math.Abs(mean) > 0.01 {
		t.Fatalf("E[log BoundedFactor(2)] = %v, want ~0", mean)
	}
}

func TestClampedLogNormalFactorRange(t *testing.T) {
	s := New(41)
	for i := 0; i < 10000; i++ {
		v := s.ClampedLogNormalFactor(1.5, 2.0)
		if v < 1/1.5-1e-12 || v > 1.5+1e-12 {
			t.Fatalf("clamped factor %v escaped [1/1.5, 1.5]", v)
		}
	}
}

func TestZipfRange(t *testing.T) {
	s := New(43)
	z := NewZipf(s, 100, 1.1)
	for i := 0; i < 10000; i++ {
		r := z.Draw()
		if r < 1 || r > 100 {
			t.Fatalf("Zipf rank %d out of [1,100]", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(47)
	z := NewZipf(s, 1000, 1.2)
	counts := make([]int, 1001)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	if counts[1] <= counts[1000] {
		t.Fatalf("Zipf(1.2) rank 1 count %d not above rank 1000 count %d", counts[1], counts[1000])
	}
	if counts[1] < 10*counts[100] {
		t.Fatalf("Zipf(1.2) insufficient skew: rank1=%d rank100=%d", counts[1], counts[100])
	}
}

func TestZipfThetaZeroIsUniform(t *testing.T) {
	s := New(53)
	z := NewZipf(s, 10, 0)
	counts := make([]int, 11)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	for r := 1; r <= 10; r++ {
		frac := float64(counts[r]) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("Zipf(theta=0) rank %d freq %v, want ~0.1", r, frac)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkBoundedFactor(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.BoundedFactor(1.5)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 1<<16, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw()
	}
}
