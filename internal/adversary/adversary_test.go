package adversary

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/task"
)

func TestTheorem1InstanceShape(t *testing.T) {
	in, err := Theorem1Instance(3, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 18 || in.M != 6 {
		t.Fatalf("shape n=%d m=%d", in.N(), in.M)
	}
	for _, tk := range in.Tasks {
		if tk.Estimate != 1 {
			t.Fatalf("non-unit estimate %v", tk.Estimate)
		}
	}
}

func TestTheorem1InstanceRejectsBadArgs(t *testing.T) {
	if _, err := Theorem1Instance(0, 5, 2); err == nil {
		t.Fatal("lambda=0 accepted")
	}
	if _, err := Theorem1Instance(2, 0, 2); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestApplyInflatesOneMachineLoad(t *testing.T) {
	in, err := Theorem1Instance(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(6, 3)
	// Machine 0 gets 3 tasks (most loaded), others split the rest.
	pref := []int{0, 0, 0, 1, 1, 2}
	for j, i := range pref {
		p.Assign(j, i)
	}
	if err := Apply(in, p); err != nil {
		t.Fatal(err)
	}
	if got := InflatedCount(in); got != 3 {
		t.Fatalf("inflated %d tasks, want 3", got)
	}
	for j := 0; j < 3; j++ {
		if in.Tasks[j].Actual != 2 {
			t.Fatalf("task %d actual %v, want 2", j, in.Tasks[j].Actual)
		}
	}
	for j := 3; j < 6; j++ {
		if in.Tasks[j].Actual != 0.5 {
			t.Fatalf("task %d actual %v, want 0.5", j, in.Tasks[j].Actual)
		}
	}
	if err := in.Validate(true); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem1BoundFormulas(t *testing.T) {
	// λ=3, m=6, B=3 (balanced placement), α=2:
	// C* ≤ ceil(15/6)/2 + 2·ceil(3/6) = 3/2 + 2 = 3.5; ratio = 6/3.5.
	upper := Theorem1OptimalUpper(3, 6, 3, 2)
	if math.Abs(upper-3.5) > 1e-12 {
		t.Fatalf("optimal upper = %v, want 3.5", upper)
	}
	ratio := Theorem1Ratio(3, 6, 3, 2)
	if math.Abs(ratio-6/3.5) > 1e-12 {
		t.Fatalf("ratio = %v, want %v", ratio, 6/3.5)
	}
}

func TestAdversaryRatioApproachesTheorem1Bound(t *testing.T) {
	// As λ grows the certified ratio of a balanced placement tends to
	// α²m/(α²+m−1).
	m, alpha := 6, 2.0
	want := bounds.LowerBoundNoReplication(m, alpha)
	ratio := Theorem1Ratio(200, m, 200, alpha)
	if math.Abs(ratio-want)/want > 0.02 {
		t.Fatalf("λ=200 ratio %v, theorem bound %v", ratio, want)
	}
	// And the certified ratio never exceeds the theorem's bound.
	for _, lambda := range []int{1, 2, 5, 10, 100} {
		r := Theorem1Ratio(lambda, m, lambda, alpha)
		if r > want+1e-9 {
			t.Fatalf("λ=%d certified ratio %v exceeds theorem bound %v", lambda, r, want)
		}
	}
}

func TestEndToEndAdversaryAgainstLPTNoChoice(t *testing.T) {
	// Run the full pipeline: place, perturb, execute, and compare the
	// measured ratio with the exact optimum. The measured ratio must
	// (a) exceed 1 (the adversary hurts) and (b) respect Theorem 2.
	in, err := Theorem1Instance(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := algo.LPTNoChoice()
	p, err := a.Place(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(in, p); err != nil {
		t.Fatal(err)
	}
	res, err := algo.Execute(in, a)
	if err != nil {
		t.Fatal(err)
	}
	star, ok := opt.Exact(in.Actuals(), in.M, 50_000_000)
	if !ok {
		t.Fatal("exact solver exhausted")
	}
	ratio := res.Makespan / star
	if ratio <= 1.2 {
		t.Fatalf("adversary ineffective: ratio %v", ratio)
	}
	if bound := bounds.LPTNoChoice(in.M, in.Alpha); ratio > bound+1e-9 {
		t.Fatalf("ratio %v exceeds Theorem 2 bound %v", ratio, bound)
	}
	// The adversary also certifies at least the Theorem 1 trend: with a
	// balanced LPT placement B=λ, so expect ratio ≥ Theorem1Ratio.
	if cert := Theorem1Ratio(3, 4, 3, 2); ratio < cert-1e-9 {
		t.Fatalf("measured ratio %v below certified %v", ratio, cert)
	}
}

func TestApplyToGroups(t *testing.T) {
	est := []float64{4, 1, 1, 1}
	in, err := task.NewEstimated(4, 2, est)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := placement.PartitionGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(4, 4)
	p.Groups = groups
	p.GroupOf = []int{0, 1, 1, 1}
	for j, g := range p.GroupOf {
		p.Sets[j] = groups[g]
	}
	if err := ApplyToGroups(in, p); err != nil {
		t.Fatal(err)
	}
	// Group 0 (load 4) is inflated, group 1 (load 3) deflated.
	if in.Tasks[0].Actual != 8 {
		t.Fatalf("task 0 actual %v, want 8", in.Tasks[0].Actual)
	}
	for j := 1; j < 4; j++ {
		if in.Tasks[j].Actual != 0.5 {
			t.Fatalf("task %d actual %v, want 0.5", j, in.Tasks[j].Actual)
		}
	}
}

func TestApplyToGroupsRequiresGroups(t *testing.T) {
	in, err := Theorem1Instance(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(2, 2)
	p.Assign(0, 0)
	p.Assign(1, 1)
	if err := ApplyToGroups(in, p); err == nil {
		t.Fatal("placement without groups accepted")
	}
}

func TestApplyShapeMismatch(t *testing.T) {
	in, _ := Theorem1Instance(1, 2, 2)
	p := placement.New(1, 2)
	p.Assign(0, 0)
	if err := Apply(in, p); err == nil {
		t.Fatal("mismatched placement accepted")
	}
}
