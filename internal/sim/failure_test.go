package sim

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// runWithFailures is the production fail-stop run the hand-computed
// tests below pin: the flat engine through its shard decomposition.
func runWithFailures(in *task.Instance, p *placement.Placement, order []int,
	failures []Failure) (*sched.Schedule, error) {
	res, err := RunFlatSharded(in, p, order, FlatOptions{Failures: failures})
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

func TestFailureNoFailuresMatchesPlainRun(t *testing.T) {
	// A crash after the last completion sends the run through the
	// general loop's fail-stop mode with nothing to lose: the plain
	// run's schedule.
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 30, M: 4, Alpha: 1.5, Seed: 3})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(4))
	p := placement.Everywhere(30, 4)
	order := identityOrder(30)

	want, err := RunFlat(in, p, order, FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := runWithFailures(in, p, order, []Failure{{Machine: 2, Time: want.Schedule.Makespan() + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Assignments, want.Schedule.Assignments) {
		t.Fatalf("failure-free run %v != plain run %v", s.Makespan(), want.Schedule.Makespan())
	}
	if err := s.Verify(in, p); err != nil {
		t.Fatal(err)
	}
}

func TestFailureLosesInFlightWork(t *testing.T) {
	// Two machines, full replication. Tasks: 10, 10, 10. Machine 0
	// crashes at t=5 while running task 0; the task restarts elsewhere.
	est := []float64{10, 10, 10}
	in, err := task.New(2, 1, est, est)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.Everywhere(3, 2)
	s, err := runWithFailures(in, p, identityOrder(3), []Failure{{Machine: 0, Time: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// Everything ends up on machine 1: 10+10+10 = 30 sequential.
	if got := s.Makespan(); got != 30 {
		t.Fatalf("makespan = %v, want 30", got)
	}
	for j, a := range s.Assignments {
		if a.Machine != 1 {
			t.Fatalf("task %d ran on dead machine: %+v", j, a)
		}
	}
}

func TestFailureUnsurvivableWithoutReplication(t *testing.T) {
	est := []float64{5, 5}
	in, err := task.New(2, 1, est, est)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(2, 2)
	p.Assign(0, 0)
	p.Assign(1, 1)
	_, err = runWithFailures(in, p, identityOrder(2), []Failure{{Machine: 0, Time: 1}})
	if !errors.Is(err, ErrUnsurvivable) {
		t.Fatalf("got %v, want ErrUnsurvivable", err)
	}
}

func TestFailureSurvivableWithGroups(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 24, M: 4, Alpha: 1.5, Seed: 7})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(8))
	groups, err := placement.PartitionGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(24, 4)
	p.Groups = groups
	p.GroupOf = make([]int, 24)
	for j := 0; j < 24; j++ {
		g := j % 2
		p.GroupOf[j] = g
		p.Sets[j] = groups[g]
	}
	s, err := runWithFailures(in, p, identityOrder(24), []Failure{{Machine: 1, Time: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for j, a := range s.Assignments {
		if a.Machine == 1 && a.End.Seconds() > 3 {
			t.Fatalf("task %d still on crashed machine after t=3: %+v", j, a)
		}
	}
	// No task assigned to a machine outside its group.
	if err := s.Verify(in, p); err != nil {
		t.Fatal(err)
	}
}

func TestFailureAfterCompletionIsHarmless(t *testing.T) {
	est := []float64{2, 2}
	in, err := task.New(2, 1, est, est)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(2, 2)
	p.Assign(0, 0)
	p.Assign(1, 1)
	s, err := runWithFailures(in, p, identityOrder(2), []Failure{{Machine: 0, Time: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 2 {
		t.Fatalf("makespan = %v, want 2", s.Makespan())
	}
}

func TestFailureAtTaskBoundary(t *testing.T) {
	// Machine 0's task ends exactly when the crash hits: the task
	// completed; only subsequent work moves.
	est := []float64{4, 4, 4}
	in, err := task.New(2, 1, est, est)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.Everywhere(3, 2)
	s, err := runWithFailures(in, p, identityOrder(3), []Failure{{Machine: 0, Time: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if a := s.Assignments[0]; a.Machine != 0 || a.End.Seconds() != 4 {
		t.Fatalf("boundary task moved: %+v", a)
	}
	// Task 2 (started at 4 in the failure-free run on machine 0) must
	// run on machine 1: makespan 4+4+... machine 1 runs task 1 (0-4)
	// then task 2 (4-8).
	if s.Makespan() != 8 {
		t.Fatalf("makespan = %v, want 8", s.Makespan())
	}
}

func TestFailureMultipleCrashes(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 40, M: 6, Alpha: 1.5, Seed: 9})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(10))
	p := placement.Everywhere(40, 6)
	s, err := runWithFailures(in, p, identityOrder(40),
		[]Failure{{Machine: 0, Time: 10}, {Machine: 3, Time: 25}})
	if err != nil {
		t.Fatal(err)
	}
	for j, a := range s.Assignments {
		if a.Machine == 0 && a.End.Seconds() > 10 {
			t.Fatalf("task %d on machine 0 after its crash: %+v", j, a)
		}
		if a.Machine == 3 && a.End.Seconds() > 25 {
			t.Fatalf("task %d on machine 3 after its crash: %+v", j, a)
		}
	}
}

func TestFailureDormantMachineWakesForRetry(t *testing.T) {
	// Machine 1 has no local work and no stealing rights until the
	// crash re-offers the lost task (full replication makes it
	// eligible). Construct: 2 machines, 2 tasks, both initially on
	// machine 0's queue priority-wise but replicated everywhere —
	// machine 1 takes task 1 at t=0, finishes at 1, goes dormant;
	// machine 0 crashes at t=5 while running task 0 (length 10).
	est := []float64{10, 1}
	in, err := task.New(2, 1, est, est)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.Everywhere(2, 2)
	s, err := runWithFailures(in, p, identityOrder(2), []Failure{{Machine: 0, Time: 5}})
	if err != nil {
		t.Fatal(err)
	}
	a0 := s.Assignments[0]
	if a0.Machine != 1 {
		t.Fatalf("lost task not retried on machine 1: %+v", a0)
	}
	if a0.Start.Seconds() != 5 || a0.End.Seconds() != 15 {
		t.Fatalf("retry timing %+v, want start 5 end 15", a0)
	}
}

func TestFailurePropertyReplicatedAlwaysSurvives(t *testing.T) {
	// For any group-replicated placement (≥2 replicas) and any single
	// crash: the run completes, nothing executes on the dead machine
	// after the crash, every task runs within its replica set, and the
	// makespan is at least the healthy one.
	f := func(seed uint64, failMachineRaw uint8, fracRaw uint8) bool {
		const m, n = 6, 36
		in := workload.MustNew(workload.Spec{Name: "uniform", N: n, M: m, Alpha: 1.5, Seed: seed})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed^5))
		groups, err := placement.PartitionGroups(m, 3)
		if err != nil {
			return false
		}
		p := placement.New(n, m)
		p.Groups = groups
		p.GroupOf = make([]int, n)
		for j := 0; j < n; j++ {
			g := j % 3
			p.GroupOf[j] = g
			p.Sets[j] = groups[g]
		}
		order := identityOrder(n)
		healthy, err := runWithFailures(in, p, order, nil)
		if err != nil {
			return false
		}
		failMachine := int(failMachineRaw) % m
		failTime := healthy.Makespan() * float64(fracRaw%100) / 100
		crashed, err := runWithFailures(in, p, order,
			[]Failure{{Machine: failMachine, Time: failTime}})
		if err != nil {
			return false
		}
		if err := crashed.Verify(in, p); err != nil {
			return false
		}
		for _, a := range crashed.Assignments {
			if a.Machine == failMachine && a.End > sec(failTime) {
				return false
			}
		}
		return crashed.Makespan() >= healthy.Makespan()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestFailureInvalidArgs(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "unit", N: 2, M: 2, Alpha: 1, Seed: 1})
	p := placement.Everywhere(2, 2)
	if _, err := runWithFailures(in, p, []int{0}, nil); err == nil {
		t.Error("short order accepted")
	}
	if _, err := runWithFailures(in, p, identityOrder(2), []Failure{{Machine: 9, Time: 1}}); err == nil {
		t.Error("invalid machine accepted")
	}
	if _, err := runWithFailures(in, p, identityOrder(2), []Failure{{Machine: 0, Time: -1}}); err == nil {
		t.Error("negative time accepted")
	}
}
