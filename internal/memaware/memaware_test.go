package memaware

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// sbo runs the substrate SBO_Δ algorithm for certain processing
// times: identical split to SABO, but the execution is evaluated as
// if estimates were exact, so the tests can hold the substrate in
// isolation.
func sbo(in *task.Instance, cfg Config) (*Result, error) {
	res, err := SABO(in, cfg)
	if err != nil {
		return nil, err
	}
	res.Algorithm = fmt.Sprintf("SBO(Δ=%.3g)", cfg.Delta)
	return res, nil
}

// memInstance draws a workload with both times and sizes and perturbs
// the actual times.
func memInstance(t *testing.T, n, m int, alpha float64, seed uint64) *task.Instance {
	t.Helper()
	in := workload.MustNew(workload.Spec{Name: "uniform", N: n, M: m, Alpha: alpha, Seed: seed})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed+1))
	return in
}

func TestSABOSplitsByDeltaTest(t *testing.T) {
	// Two tasks: one pure compute (size ~0), one pure memory
	// (estimate tiny). With Δ=1 the compute task must land in S1 and
	// the memory task in S2.
	est := []float64{10, 0.001}
	in, err := task.NewEstimated(2, 1.5, est)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.SetSizes([]float64{0.001, 10}); err != nil {
		t.Fatal(err)
	}
	res, err := SABO(in, Config{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TimeIntensive) != 1 || res.TimeIntensive[0] != 0 {
		t.Fatalf("S1 = %v, want [0]", res.TimeIntensive)
	}
	if len(res.MemoryIntensive) != 1 || res.MemoryIntensive[0] != 1 {
		t.Fatalf("S2 = %v, want [1]", res.MemoryIntensive)
	}
}

func TestDeltaExtremes(t *testing.T) {
	in := memInstance(t, 40, 4, 1.5, 7)
	// Tiny Δ: everything is time-intensive.
	res, err := SABO(in, Config{Delta: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MemoryIntensive) != 0 {
		t.Fatalf("Δ→0 produced %d memory-intensive tasks", len(res.MemoryIntensive))
	}
	// Huge Δ: everything is memory-intensive.
	res, err = SABO(in, Config{Delta: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TimeIntensive) != 0 {
		t.Fatalf("Δ→∞ left %d time-intensive tasks", len(res.TimeIntensive))
	}
}

func TestRejectsBadDelta(t *testing.T) {
	in := memInstance(t, 10, 2, 1.5, 1)
	for _, d := range []float64{0, -1, math.NaN()} {
		if _, err := SABO(in, Config{Delta: d}); err == nil {
			t.Errorf("SABO accepted delta %v", d)
		}
		if _, err := ABO(in, Config{Delta: d}); err == nil {
			t.Errorf("ABO accepted delta %v", d)
		}
	}
}

func TestSABONoReplication(t *testing.T) {
	in := memInstance(t, 30, 4, 2, 3)
	res, err := SABO(in, Config{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.MaxReplication() != 1 {
		t.Fatalf("SABO replicated: %d", res.Placement.MaxReplication())
	}
	if err := res.Schedule.Verify(in, res.Placement); err != nil {
		t.Fatal(err)
	}
}

func TestABOReplicatesOnlyTimeIntensive(t *testing.T) {
	in := memInstance(t, 30, 4, 2, 5)
	res, err := ABO(in, Config{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.TimeIntensive {
		if got := len(res.Placement.Sets[j]); got != 4 {
			t.Fatalf("time-intensive task %d has %d replicas, want m", j, got)
		}
	}
	for _, j := range res.MemoryIntensive {
		if got := len(res.Placement.Sets[j]); got != 1 {
			t.Fatalf("memory-intensive task %d has %d replicas, want 1", j, got)
		}
	}
}

func TestABOMemoryAtLeastSABO(t *testing.T) {
	in := memInstance(t, 60, 5, 1.5, 11)
	sabo, err := SABO(in, Config{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	abo, err := ABO(in, Config{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if abo.MemMax < sabo.MemMax-1e-9 {
		t.Fatalf("ABO memory %v below SABO %v despite replication", abo.MemMax, sabo.MemMax)
	}
}

func TestTheoremGuaranteesSmallInstances(t *testing.T) {
	// Validate Theorems 5–8 against exact optima on small instances,
	// using exact π1/π2 (ρ1 = ρ2 = 1).
	src := rng.New(17)
	for trial := 0; trial < 25; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "uniform", N: 10, M: 3, Alpha: 1.4, Seed: src.Uint64(),
		})
		uncertainty.Extremes{}.Perturb(in, nil, rng.New(src.Uint64()))
		cstar, ok := opt.Exact(in.Actuals(), in.M, 20_000_000)
		if !ok {
			t.Fatal("exact makespan solver exhausted")
		}
		memstar, ok := opt.Exact(in.Sizes(), in.M, 20_000_000)
		if !ok {
			t.Fatal("exact memory solver exhausted")
		}
		cfg := Config{Delta: 1, Pi1: ExactMapping, Pi2: ExactMapping}
		alpha := in.Alpha

		sabo, err := SABO(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bound := bounds.SABOMakespan(alpha, 1, 1) * cstar; sabo.Makespan > bound+1e-9 {
			t.Errorf("trial %d: SABO makespan %v > bound %v", trial, sabo.Makespan, bound)
		}
		if bound := bounds.SABOMemory(1, 1) * memstar; sabo.MemMax > bound+1e-9 {
			t.Errorf("trial %d: SABO memory %v > bound %v", trial, sabo.MemMax, bound)
		}

		abo, err := ABO(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bound := bounds.ABOMakespan(in.M, alpha, 1, 1) * cstar; abo.Makespan > bound+1e-9 {
			t.Errorf("trial %d: ABO makespan %v > bound %v", trial, abo.Makespan, bound)
		}
		if bound := bounds.ABOMemory(in.M, 1, 1) * memstar; abo.MemMax > bound+1e-9 {
			t.Errorf("trial %d: ABO memory %v > bound %v", trial, abo.MemMax, bound)
		}
	}
}

func TestMemoryImprovesAcrossDeltaRange(t *testing.T) {
	// Mem_max is not pointwise monotone in Δ (moving one task between
	// the reference schedules can bump a machine), but the endpoints
	// must order: Δ→∞ follows the memory-optimized π2 everywhere and
	// must beat Δ→0, which ignores sizes entirely.
	in := memInstance(t, 80, 5, 1.5, 23)
	timeOnly, err := SABO(in, Config{Delta: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	memOnly, err := SABO(in, Config{Delta: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if memOnly.MemMax >= timeOnly.MemMax {
		t.Fatalf("memory-oriented SABO (%v) not below time-oriented (%v)",
			memOnly.MemMax, timeOnly.MemMax)
	}
	// And every intermediate Δ stays within its theoretical memory
	// guarantee relative to the planned π2 memory.
	for _, d := range []float64{0.1, 0.5, 1, 2, 10} {
		res, err := SABO(in, Config{Delta: d})
		if err != nil {
			t.Fatal(err)
		}
		if limit := (1 + 1/d) * res.PlannedMemory; res.MemMax > limit+1e-9 {
			t.Fatalf("Δ=%v: memory %v exceeds (1+1/Δ)·Mem^π2 = %v", d, res.MemMax, limit)
		}
	}
}

func TestExactMappingOptimal(t *testing.T) {
	weights := []float64{3, 3, 2, 2, 2}
	mapping := ExactMapping(weights, 2)
	loads := make([]float64, 2)
	for j, i := range mapping {
		loads[i] += weights[j]
	}
	max := math.Max(loads[0], loads[1])
	if max != 6 {
		t.Fatalf("ExactMapping achieved %v, optimum 6", max)
	}
}

func TestSBOMatchesSABOSplit(t *testing.T) {
	in := memInstance(t, 20, 3, 1.5, 31)
	a, err := sbo(in, Config{Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SABO(in, Config{Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.MemMax != b.MemMax {
		t.Fatalf("SBO and SABO diverged: (%v,%v) vs (%v,%v)",
			a.Makespan, a.MemMax, b.Makespan, b.MemMax)
	}
}

func TestZeroSizeTasksAreTimeIntensive(t *testing.T) {
	est := []float64{1, 2, 3}
	in, err := task.NewEstimated(2, 1.5, est)
	if err != nil {
		t.Fatal(err)
	}
	// Sizes default to zero.
	res, err := SABO(in, Config{Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TimeIntensive) != 3 {
		t.Fatalf("zero-size tasks not all time-intensive: %v", res.TimeIntensive)
	}
}

func TestFeasibilityProperty(t *testing.T) {
	f := func(seed uint64, dRaw uint8, useABO bool) bool {
		delta := 0.1 + float64(dRaw)/32
		in := workload.MustNew(workload.Spec{Name: "spmv", N: 40, M: 4, Alpha: 1.6, Seed: seed})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed^99))
		var res *Result
		var err error
		if useABO {
			res, err = ABO(in, Config{Delta: delta})
		} else {
			res, err = SABO(in, Config{Delta: delta})
		}
		if err != nil {
			return false
		}
		if err := res.Schedule.Verify(in, res.Placement); err != nil {
			return false
		}
		// Memory accounting: MemMax must equal placement max memory.
		return res.MemMax == res.Placement.MaxMemory(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSABO1e4(b *testing.B) {
	in := workload.MustNew(workload.Spec{Name: "spmv", N: 10000, M: 16, Alpha: 1.5, Seed: 1})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SABO(in, Config{Delta: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkABO1e4(b *testing.B) {
	in := workload.MustNew(workload.Spec{Name: "spmv", N: 10000, M: 16, Alpha: 1.5, Seed: 1})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ABO(in, Config{Delta: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplicatedSetsAreSharedAndWhatAssignSetBuilt pins the shared
// replica sets of ABO and GABO: every task's set is element-wise its
// machines in ascending order (all of them for ABO, its group's for
// GABO), and tasks with the same set hold the same slice, so placement.SameSet
// recognises the repeats.
func TestReplicatedSetsAreSharedAndWhatAssignSetBuilt(t *testing.T) {
	in := memInstance(t, 60, 8, 2, 9)
	groups, err := placement.PartitionGroups(in.M, 4)
	if err != nil {
		t.Fatal(err)
	}
	abo, err := ABO(in, Config{Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	gabo, err := GABO(in, Config{Delta: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	all := placement.Everywhere(1, in.M).Sets[0]
	for name, res := range map[string]*Result{"ABO": abo, "GABO": gabo} {
		if len(res.TimeIntensive) < 2 {
			t.Fatalf("%s: want several replicated tasks, got %d", name, len(res.TimeIntensive))
		}
		want := placement.New(in.N(), in.M)
		firstOf := map[int]int{} // first machine of a set -> first task holding it
		for _, j := range res.TimeIntensive {
			got := res.Placement.Sets[j]
			if name == "ABO" {
				want.Sets[j] = all
			} else {
				want.Sets[j] = groups[got[0]/2]
			}
			if !slices.Equal(got, want.Sets[j]) {
				t.Fatalf("%s task %d: set %v, want %v", name, j, got, want.Sets[j])
			}
			if first, ok := firstOf[got[0]]; !ok {
				firstOf[got[0]] = j
			} else if !placement.SameSet(got, res.Placement.Sets[first]) {
				t.Fatalf("%s tasks %d and %d hold equal sets in different slices", name, first, j)
			}
		}
		if err := res.Placement.Validate(in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
