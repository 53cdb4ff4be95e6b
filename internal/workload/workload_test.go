package workload

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestAllGeneratorsProduceValidInstances(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			in, err := New(Spec{Name: name, N: 200, M: 8, Alpha: 1.5, Seed: 1})
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			if in.N() != 200 || in.M != 8 || in.Alpha != 1.5 {
				t.Fatalf("wrong shape: %v", in)
			}
			if err := in.Validate(true); err != nil {
				t.Fatalf("invalid instance: %v", err)
			}
			for _, tk := range in.Tasks {
				if tk.Actual != tk.Estimate {
					t.Fatalf("task %d actual %v != estimate %v before perturbation",
						tk.ID, tk.Actual, tk.Estimate)
				}
			}
		})
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	for _, name := range Names() {
		a := MustNew(Spec{Name: name, N: 50, M: 4, Alpha: 2, Seed: 99})
		b := MustNew(Spec{Name: name, N: 50, M: 4, Alpha: 2, Seed: 99})
		for i := range a.Tasks {
			if a.Tasks[i] != b.Tasks[i] {
				t.Fatalf("%s: task %d differs between identical specs", name, i)
			}
		}
	}
}

func TestSeedChangesRandomWorkloads(t *testing.T) {
	for _, name := range []string{"uniform", "bimodal", "zipf", "spmv", "mapreduce", "exponential", "iterative"} {
		a := MustNew(Spec{Name: name, N: 100, M: 4, Alpha: 2, Seed: 1})
		b := MustNew(Spec{Name: name, N: 100, M: 4, Alpha: 2, Seed: 2})
		diff := false
		for i := range a.Tasks {
			if a.Tasks[i].Estimate != b.Tasks[i].Estimate {
				diff = true
				break
			}
		}
		if !diff {
			t.Errorf("%s: seeds 1 and 2 produced identical workloads", name)
		}
	}
}

func TestUnknownGenerator(t *testing.T) {
	if _, err := New(Spec{Name: "nope", N: 1, M: 1}); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestRejectsBadShape(t *testing.T) {
	if _, err := New(Spec{Name: "uniform", N: 0, M: 1}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := New(Spec{Name: "uniform", N: 1, M: 0}); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestAlphaDefaultsToOne(t *testing.T) {
	in := MustNew(Spec{Name: "unit", N: 3, M: 2})
	if in.Alpha != 1 {
		t.Fatalf("Alpha = %v, want 1", in.Alpha)
	}
}

func TestUnitAllOnes(t *testing.T) {
	in := MustNew(Spec{Name: "unit", N: 10, M: 3, Alpha: 2, Seed: 5})
	for _, tk := range in.Tasks {
		if tk.Estimate != 1 || tk.Size != 1 {
			t.Fatalf("unit task %d = %+v", tk.ID, tk)
		}
	}
}

func TestDecreasingIsNonIncreasing(t *testing.T) {
	in := MustNew(Spec{Name: "decreasing", N: 64, M: 4, Alpha: 1})
	for i := 1; i < in.N(); i++ {
		if in.Tasks[i].Estimate > in.Tasks[i-1].Estimate {
			t.Fatalf("decreasing not monotone at %d", i)
		}
	}
	if in.Tasks[0].Estimate != 100 {
		t.Fatalf("largest task %v, want 100 (default scale)", in.Tasks[0].Estimate)
	}
}

func TestBimodalModes(t *testing.T) {
	in := MustNew(Spec{Name: "bimodal", N: 5000, M: 4, Alpha: 1, Seed: 3})
	short, long := 0, 0
	for _, tk := range in.Tasks {
		switch tk.Estimate {
		case 1:
			short++
		case 50:
			long++
		default:
			t.Fatalf("unexpected estimate %v", tk.Estimate)
		}
	}
	frac := float64(long) / float64(long+short)
	if math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("long fraction %v, want ~0.1", frac)
	}
}

func TestZipfSkewedWorkload(t *testing.T) {
	in := MustNew(Spec{Name: "zipf", N: 5000, M: 4, Alpha: 1, Seed: 7})
	maxEst := slices.Max(in.Estimates())
	if maxEst != 1000 { // rank 1 must appear in 5000 draws at theta=1.1
		t.Fatalf("max estimate %v, want 1000", maxEst)
	}
	mean := in.TotalEstimate() / float64(in.N())
	if mean >= maxEst/2 {
		t.Fatalf("zipf not skewed: mean %v vs max %v", mean, maxEst)
	}
}

func TestSpMVPositiveAndSkewed(t *testing.T) {
	in := MustNew(Spec{Name: "spmv", N: 2000, M: 8, Alpha: 1, Seed: 11})
	var min, max = math.Inf(1), 0.0
	for _, tk := range in.Tasks {
		if tk.Estimate <= 0 || tk.Size <= 0 {
			t.Fatalf("non-positive spmv task %+v", tk)
		}
		min = math.Min(min, tk.Estimate)
		max = math.Max(max, tk.Estimate)
	}
	if max/min < 10 {
		t.Fatalf("spmv spread too small: min=%v max=%v", min, max)
	}
}

func TestIterativeSolverTightEstimates(t *testing.T) {
	in := MustNew(Spec{Name: "iterative", N: 1000, M: 8, Alpha: 1, Seed: 13})
	for _, tk := range in.Tasks {
		if tk.Estimate < 10*0.9-1e-9 || tk.Estimate > 10*1.1+1e-9 {
			t.Fatalf("iterative estimate %v outside ±10%%", tk.Estimate)
		}
	}
}

func TestMapReduceStartupFloor(t *testing.T) {
	in := MustNew(Spec{Name: "mapreduce", N: 1000, M: 8, Alpha: 1, Seed: 17})
	for _, tk := range in.Tasks {
		if tk.Estimate < 3-1e-9 {
			t.Fatalf("mapreduce estimate %v below startup+min partition", tk.Estimate)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(Generators) {
		t.Fatalf("Names() has %d entries, registry %d", len(names), len(Generators))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestPropertyAllGeneratorsAnySize(t *testing.T) {
	f := func(nRaw, mRaw uint8, seed uint64, which uint8) bool {
		names := Names()
		spec := Spec{
			Name:  names[int(which)%len(names)],
			N:     int(nRaw%100) + 1,
			M:     int(mRaw%20) + 1,
			Alpha: 1.5,
			Seed:  seed,
		}
		in, err := New(spec)
		if err != nil {
			return false
		}
		return in.Validate(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
