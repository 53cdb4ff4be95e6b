package algo

// proofs_test numerically verifies the intermediate inequalities used
// in the paper's proofs, on randomly drawn instances. These are
// stronger checks than end-to-end guarantee validation: if an
// implementation detail diverged from the model (dispatch order,
// tie-breaking, load accounting), some step of the proof chain would
// fail even when the final bound happens to hold.

import (
	"slices"
	"testing"

	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// criticalTask returns the task whose completion defines the makespan
// and the number of tasks on its machine.
func criticalTask(s *sched.Schedule) (taskID, tasksOnMachine int) {
	makespan := s.Makespan()
	taskID = -1
	machine := -1
	for j, a := range s.Assignments {
		if a.End.Seconds() == makespan {
			taskID = j
			machine = a.Machine
			break
		}
	}
	for _, a := range s.Assignments {
		if a.Machine == machine {
			tasksOnMachine++
		}
	}
	return taskID, tasksOnMachine
}

// TestLemma1NoRestriction verifies Lemma 1: if the machine executing
// the C_max-reaching task l under LPT-No Restriction has at least two
// tasks, then C* ≥ (2/α²)·p_l.
func TestLemma1NoRestriction(t *testing.T) {
	src := rng.New(41)
	checked := 0
	for trial := 0; trial < 60 && checked < 25; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "uniform", N: 14, M: 3, Alpha: 1.6, Seed: src.Uint64(),
		})
		uncertainty.Extremes{}.Perturb(in, nil, rng.New(src.Uint64()))
		res, err := Execute(in, LPTNoRestriction())
		if err != nil {
			t.Fatal(err)
		}
		l, count := criticalTask(res.Schedule)
		if count < 2 {
			continue // lemma's hypothesis not met
		}
		checked++
		star, ok := opt.Exact(in.Actuals(), in.M, 20_000_000)
		if !ok {
			t.Fatal("exact solver exhausted")
		}
		pl := in.Tasks[l].Actual
		if lower := 2 * pl / (in.Alpha * in.Alpha); star < lower-1e-9 {
			t.Fatalf("trial %d: Lemma 1 violated: C*=%v < 2·p_l/α²=%v", trial, star, lower)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d instances met the lemma's hypothesis", checked)
	}
}

// TestEquation2LPTPlannedMakespan verifies Equation 2 of Theorem 2's
// proof: under LPT on the estimates, the planned makespan satisfies
// C̃_max ≤ (Σp̃ + (m−1)·p̃_l)/m where l is the task reaching C̃_max.
func TestEquation2LPTPlannedMakespan(t *testing.T) {
	src := rng.New(43)
	for trial := 0; trial < 40; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "zipf", N: 25, M: 4, Alpha: 2, Seed: src.Uint64(),
		})
		// Planned schedule = LPT executed on the estimates themselves.
		planned := in.Clone()
		for j := range planned.Tasks {
			planned.Tasks[j].Actual = planned.Tasks[j].Estimate
		}
		res, err := Execute(planned, LPTNoChoice())
		if err != nil {
			t.Fatal(err)
		}
		l, _ := criticalTask(res.Schedule)
		sum := planned.TotalEstimate()
		mf := float64(planned.M)
		bound := (sum + (mf-1)*planned.Tasks[l].Estimate) / mf
		if res.Makespan > bound+1e-9 {
			t.Fatalf("trial %d: Equation 2 violated: C̃=%v > %v", trial, res.Makespan, bound)
		}
	}
}

// TestGrahamStepEquation8 verifies Equation 8 of Theorem 3's proof:
// for any list-scheduling execution, C_max ≤ Σp/m + (m−1)/m·p_l where
// l is the task reaching C_max.
func TestGrahamStepEquation8(t *testing.T) {
	src := rng.New(47)
	for trial := 0; trial < 40; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "bimodal", N: 30, M: 5, Alpha: 1.8, Seed: src.Uint64(),
		})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(src.Uint64()))
		for _, a := range []Algorithm{LSNoRestriction(), LPTNoRestriction()} {
			res, err := Execute(in, a)
			if err != nil {
				t.Fatal(err)
			}
			l, _ := criticalTask(res.Schedule)
			mf := float64(in.M)
			_, total := actualBounds(in)
			bound := total/mf + (mf-1)/mf*in.Tasks[l].Actual
			if res.Makespan > bound+1e-9 {
				t.Fatalf("trial %d %s: Equation 8 violated: C=%v > %v",
					trial, a.Name(), res.Makespan, bound)
			}
		}
	}
}

// TestTheorem4GroupLoadGap verifies the phase-1 inequality of
// Theorem 4's proof: after list-scheduling tasks onto groups by
// estimated load, the estimated load difference between any two
// groups is at most max_j p̃_j.
func TestTheorem4GroupLoadGap(t *testing.T) {
	src := rng.New(53)
	for trial := 0; trial < 40; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "zipf", N: 40, M: 6, Alpha: 2, Seed: src.Uint64(),
		})
		for _, k := range []int{2, 3, 6} {
			p, err := LSGroup(k).Place(in)
			if err != nil {
				t.Fatal(err)
			}
			loads := make([]float64, k)
			for j, g := range p.GroupOf {
				loads[g] += in.Tasks[j].Estimate
			}
			min, max := loads[0], loads[0]
			for _, l := range loads[1:] {
				if l < min {
					min = l
				}
				if l > max {
					max = l
				}
			}
			if gap, pmax := max-min, slices.Max(in.Estimates()); gap > pmax+1e-9 {
				t.Fatalf("trial %d k=%d: group gap %v exceeds max estimate %v",
					trial, k, gap, pmax)
			}
		}
	}
}

// TestTheorem2TwoTaskArgument verifies the argument Theorem 2 borrows
// from LPT's analysis: when the critical machine of the *planned* LPT
// schedule holds at least two tasks, the estimated time of its last
// task is at most half the planned makespan.
func TestTheorem2TwoTaskArgument(t *testing.T) {
	src := rng.New(59)
	for trial := 0; trial < 40; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "uniform", N: 20, M: 4, Alpha: 1.5, Seed: src.Uint64(),
		})
		planned := in.Clone()
		for j := range planned.Tasks {
			planned.Tasks[j].Actual = planned.Tasks[j].Estimate
		}
		res, err := Execute(planned, LPTNoChoice())
		if err != nil {
			t.Fatal(err)
		}
		l, count := criticalTask(res.Schedule)
		if count < 2 {
			continue
		}
		if pl := planned.Tasks[l].Estimate; pl > res.Makespan/2+1e-9 {
			t.Fatalf("trial %d: last task %v exceeds half the planned makespan %v",
				trial, pl, res.Makespan)
		}
	}
}
