package algo

// Metamorphic properties: transformations of the input with known
// effect on the output. These catch subtle unit or ordering bugs that
// point tests miss.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func scaledInstance(in *task.Instance, c float64) *task.Instance {
	out := in.Clone()
	for j := range out.Tasks {
		out.Tasks[j].Estimate *= c
		out.Tasks[j].Actual *= c
	}
	return out
}

// TestScaleInvariance: multiplying every processing time by c > 0
// multiplies every algorithm's makespan by exactly c (all decisions
// compare ratios of times, never absolute values).
func TestScaleInvariance(t *testing.T) {
	algos := []Algorithm{
		LPTNoChoice(), LSNoChoice(), LPTNoRestriction(), LSNoRestriction(),
		LSGroup(2), LPTGroup(3), ReplicateTail(7), OracleLPT(),
	}
	f := func(seed uint64, cRaw uint8, pick uint8) bool {
		// Powers of two scale floats exactly, so tie-breaking decisions
		// inside the algorithms are preserved bit-for-bit.
		c := math.Ldexp(1, int(cRaw%7)-3) // 1/8 .. 8
		in := workload.MustNew(workload.Spec{Name: "zipf", N: 30, M: 6, Alpha: 1.6, Seed: seed})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed^3))
		a := algos[int(pick)%len(algos)]
		r1, err := Execute(in, a)
		if err != nil {
			return false
		}
		r2, err := Execute(scaledInstance(in, c), a)
		if err != nil {
			return false
		}
		return math.Abs(r2.Makespan-c*r1.Makespan) <= 1e-9*c*r1.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTaskOrderInvarianceForLPT: LPT-based algorithms sort by
// estimate, so permuting the task IDs leaves the multiset of machine
// loads (and the makespan) unchanged when all estimates are distinct.
func TestTaskOrderInvarianceForLPT(t *testing.T) {
	f := func(seed uint64) bool {
		in := workload.MustNew(workload.Spec{Name: "uniform", N: 24, M: 4, Alpha: 1.5, Seed: seed})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed^9))
		// Distinct estimates with overwhelming probability (uniform
		// floats); bail out if not.
		seen := map[float64]bool{}
		for _, tk := range in.Tasks {
			if seen[tk.Estimate] {
				return true
			}
			seen[tk.Estimate] = true
		}
		perm := rng.New(seed ^ 11).Perm(in.N())
		shuffled := in.Clone()
		for j, pj := range perm {
			shuffled.Tasks[pj] = in.Tasks[j]
			shuffled.Tasks[pj].ID = pj
		}
		a, err := Execute(in, LPTNoChoice())
		if err != nil {
			return false
		}
		b, err := Execute(shuffled, LPTNoChoice())
		if err != nil {
			return false
		}
		return math.Abs(a.Makespan-b.Makespan) <= 1e-9*a.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestClairvoyantInstanceMatchesClassicalBounds: when actuals equal
// estimates (α irrelevant), LPT-No Restriction behaves as offline LPT
// and must respect the 4/3 − 1/(3m) guarantee against the best lower
// bound.
func TestClairvoyantInstanceMatchesClassicalBounds(t *testing.T) {
	f := func(seed uint64) bool {
		in := workload.MustNew(workload.Spec{Name: "uniform", N: 20, M: 4, Alpha: 1.8, Seed: seed})
		// No perturbation: actuals stay equal to estimates.
		res, err := Execute(in, LPTNoRestriction())
		if err != nil {
			return false
		}
		lptBound := 4.0/3 - 1.0/12 // 4/3 − 1/(3m), m = 4
		lower := bestLowerBound(in)
		return res.Makespan <= lptBound*lower+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundHoldsAtRealisedAlpha is experiment e8's property. The
// theorems quantify over any α that covers the actual times, so an
// instance perturbed with a factor β past its declared α still obeys
// every stated guarantee — evaluated at the realised
// α̂ = max_j max(p_j/p̃_j, p̃_j/p_j) instead of the declared α. The
// scheduler never reads α, so the declared value changes no decision.
func TestBoundHoldsAtRealisedAlpha(t *testing.T) {
	algos := []Algorithm{
		LPTNoChoice(), LPTNoRestriction(), LSNoRestriction(),
		LSGroup(2), LSGroup(3), LPTGroup(2), LSGroupBalanced(3), OracleLPT(),
	}
	f := func(seed uint64, betaRaw, pick uint8) bool {
		in := workload.MustNew(workload.Spec{Name: "uniform", N: 36, M: 6, Alpha: 1.2, Seed: seed})
		beta := in.Alpha + float64(betaRaw)/32 // declared 1.2, true up to 9.2
		src := rng.New(seed ^ 5)
		realised := 1.0
		for j := range in.Tasks {
			factor := src.BoundedFactor(beta)
			in.Tasks[j].Actual = in.Tasks[j].Estimate * factor
			realised = max(realised, factor, 1/factor)
		}
		a := algos[int(pick)%len(algos)]
		res, err := Execute(in, a)
		if err != nil {
			return false
		}
		rho, ok := a.Guarantee(in.M, realised)
		upper, _ := opt.LPT(in.Actuals(), in.M)
		return ok && bounds.Holds(res.Makespan, rho, upper)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func bestLowerBound(in *task.Instance) float64 {
	mx, total := actualBounds(in)
	return max(mx, total/float64(in.M))
}

// TestMemoryScaleInvariance: scaling all sizes by c scales the
// placement's memory occupation by c while leaving makespans alone.
func TestMemoryScaleInvariance(t *testing.T) {
	f := func(seed uint64, cRaw uint8) bool {
		c := 0.5 + float64(cRaw)/16
		in := workload.MustNew(workload.Spec{Name: "spmv", N: 24, M: 4, Alpha: 1.5, Seed: seed})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed^17))
		scaled := in.Clone()
		sizes := scaled.Sizes()
		for i := range sizes {
			sizes[i] *= c
		}
		if err := scaled.SetSizes(sizes); err != nil {
			return false
		}
		a, err := Execute(in, ReplicateTail(6))
		if err != nil {
			return false
		}
		b, err := Execute(scaled, ReplicateTail(6))
		if err != nil {
			return false
		}
		memA := a.Placement.MaxMemory(in)
		memB := b.Placement.MaxMemory(scaled)
		return a.Makespan == b.Makespan && math.Abs(memB-c*memA) <= 1e-9*math.Max(1, c*memA)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
