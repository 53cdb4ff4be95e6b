package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// TestTrialsSeedsAndOrder: seeds are the stream's draws in trial order
// whatever the worker count, results come back at their trial index,
// and the error is the first failing trial's in that order.
func TestTrialsSeedsAndOrder(t *testing.T) {
	const n, draws = 7, 3
	want := make([][]uint64, n)
	src := rng.New(99)
	for i := range want {
		for d := 0; d < draws; d++ {
			want[i] = append(want[i], src.Uint64())
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := trials(rng.New(99), n, draws, Options{Workers: workers}, func(tr trial) ([]uint64, error) {
			if tr.index < 0 || tr.index >= n {
				return nil, fmt.Errorf("index %d", tr.index)
			}
			return tr.seeds, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: seeds %v, want %v", workers, got, want)
		}
		_, err = trials(rng.New(99), n, draws, Options{Workers: workers}, func(tr trial) (int, error) {
			if tr.index == 5 || tr.index == 2 {
				return 0, fmt.Errorf("trial %d failed", tr.index)
			}
			return tr.index, nil
		})
		if err == nil || err.Error() != "trial 2 failed" {
			t.Errorf("workers=%d: error %v, want trial 2's", workers, err)
		}
	}
}

// boastful is a strategy double: LPT-No Choice claiming a ratio no
// schedule can have. Any makespan is ≥ C* and LPT's upper bound is
// ≤ 4/3·C*, so makespan ≥ 3/4·upper > ρ·upper at ρ = 1/2 on every
// instance.
type boastful struct{ algo.Algorithm }

func (boastful) Guarantee(int, float64) (float64, bool) { return 0.5, true }

// TestTrialsCatchPlantedViolation: the oracle is live — a run that
// breaks the bound its strategy states fails the whole fan-out, with
// the trial's seeds in the error; the honest strategy on the same
// instances passes.
func TestTrialsCatchPlantedViolation(t *testing.T) {
	run := func(a algo.Algorithm) (firstSeeds []uint64, err error) {
		_, err = trials(rng.New(7), 4, 2, Options{}, func(tr trial) (float64, error) {
			if tr.index == 0 {
				firstSeeds = tr.seeds
			}
			in := workload.MustNew(workload.Spec{Name: "uniform", N: 40, M: 4, Alpha: 1.5, Seed: tr.seeds[0]})
			uncertainty.Uniform{}.Perturb(in, nil, rng.New(tr.seeds[1]))
			r, err := algo.Execute(in, a)
			if err != nil {
				return 0, err
			}
			_, ub := bracket(in)
			return r.Makespan, tr.bounded(a, in, in.Alpha, r.Makespan, ub)
		})
		return firstSeeds, err
	}
	if _, err := run(algo.LPTNoChoice()); err != nil {
		t.Fatalf("honest strategy failed the oracle: %v", err)
	}
	seeds, err := run(boastful{algo.LPTNoChoice()})
	if err == nil {
		t.Fatal("planted violation passed the oracle")
	}
	for _, want := range []string{"guarantee violated", "LPT-NoChoice", "trial 0", fmt.Sprint(seeds)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	// A run without a stated bound is never a violation.
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 8, M: 2, Alpha: 1.5, Seed: 1})
	if err := (trial{}).bounded(algo.ReplicateTail(3), in, in.Alpha, 1e9, 1); err != nil {
		t.Errorf("unbounded strategy checked: %v", err)
	}
}

// TestFailStoppedCatchesWorkAfterTheCrash: e10's fail-stop check passes
// the engine's crashed run and fails, naming the trial's seeds, a
// schedule with work on the dead machine past its crash and one that
// does not verify.
func TestFailStoppedCatchesWorkAfterTheCrash(t *testing.T) {
	est := []float64{4, 4, 4}
	in, err := task.New(2, 1, est, est)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.Everywhere(3, 2)
	crash := sim.Failure{Machine: 0, Time: 2}
	tr := trial{index: 3, seeds: []uint64{7, 8, 9}}
	res, err := sim.RunFlatSharded(in, p, []int{0, 1, 2}, sim.FlatOptions{Failures: []sim.Failure{crash}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.failStopped(res.Schedule, in, p, crash); err != nil {
		t.Fatalf("engine's crashed run: %v", err)
	}
	healthy, err := sim.RunFlatSharded(in, p, []int{0, 1, 2}, sim.FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.failStopped(healthy.Schedule, in, p, crash); err == nil || !strings.Contains(err.Error(), "seeds [7 8 9]") {
		t.Errorf("healthy schedule against a crash at 2: %v, want work past the crash", err)
	}
	broken := &sched.Schedule{M: 2, Assignments: slices.Clone(res.Schedule.Assignments)}
	broken.Assignments[1].End++
	if err := tr.failStopped(broken, in, p, crash); err == nil || !strings.Contains(err.Error(), "seeds [7 8 9]") {
		t.Errorf("invalid schedule: %v, want a Verify error", err)
	}
}
