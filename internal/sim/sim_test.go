package sim

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func inst(t *testing.T, m int, actuals ...float64) *task.Instance {
	t.Helper()
	est := make([]float64, len(actuals))
	copy(est, actuals)
	in, err := task.New(m, 1, est, actuals)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// identityOrder returns 0..n-1.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func TestListDispatcherFullReplication(t *testing.T) {
	// 2 machines, tasks of length 3,2,2: greedy list scheduling puts
	// task0 on m0, task1 on m1, task2 on m1 (first idle at t=2).
	in := inst(t, 2, 3, 2, 2)
	p := placement.Everywhere(3, 2)
	res, err := RunFlat(in, p, identityOrder(3), FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in, p); err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.Makespan(); got != 4 {
		t.Fatalf("makespan = %v, want 4", got)
	}
	a2 := res.Schedule.Assignments[2]
	if a2.Machine != 1 || a2.Start.Seconds() != 2 {
		t.Fatalf("task 2 ran %+v, want machine 1 start 2", a2)
	}
}

func TestListDispatcherRespectsReplicaSets(t *testing.T) {
	// Task 0 restricted to machine 1; machine 0 must take task 1.
	in := inst(t, 2, 5, 1)
	p := placement.New(2, 2)
	p.Assign(0, 1)
	p.Assign(1, 0)
	res, err := RunFlat(in, p, identityOrder(2), FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in, p); err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Assignments[0].Machine != 1 {
		t.Fatalf("task 0 ran on machine %d", res.Schedule.Assignments[0].Machine)
	}
}

func TestRunUsesActualTimes(t *testing.T) {
	est := []float64{2, 2}
	act := []float64{4, 1}
	in, err := task.New(1, 2, est, act)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFlat(in, placement.Everywhere(2, 1), identityOrder(2), FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.Makespan(); got != 5 {
		t.Fatalf("makespan = %v, want 5 (actual times)", got)
	}
}

func TestTieBreakTowardLowerMachine(t *testing.T) {
	in := inst(t, 3, 1)
	res, err := RunFlat(in, placement.Everywhere(1, 3), identityOrder(1), FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.Assignments[0].Machine; got != 0 {
		t.Fatalf("first task on machine %d, want 0", got)
	}
}

func TestTraceOrdering(t *testing.T) {
	in := inst(t, 2, 2, 1, 1)
	res, err := RunFlat(in, placement.Everywhere(3, 2), identityOrder(3), FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trace := TraceOf(res.Schedule)
	if len(trace) != 6 {
		t.Fatalf("trace has %d events, want 6", len(trace))
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Time < trace[i-1].Time {
			t.Fatalf("trace out of order at %d: %+v", i, trace)
		}
	}
	starts := 0
	for _, ev := range trace {
		if ev.Kind == "start" {
			starts++
		}
	}
	if starts != 3 {
		t.Fatalf("trace has %d starts, want 3", starts)
	}
}

func TestNewListDispatcherRejectsBadOrder(t *testing.T) {
	in := inst(t, 2, 1, 1, 1)
	p := placement.Everywhere(3, 2)
	if _, err := RunFlat(in, p, []int{0, 1}, FlatOptions{}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := RunFlat(in, p, []int{0, 1, 1}, FlatOptions{}); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, err := RunFlat(in, p, []int{0, 1, 9}, FlatOptions{}); err == nil {
		t.Fatal("out-of-range order accepted")
	}
}

func TestRunDetectsUnexecutedTasks(t *testing.T) {
	// A task with no replica anywhere could never execute; the run is
	// refused rather than returned short.
	in := inst(t, 1, 1, 1)
	p := placement.Everywhere(2, 1)
	p.Sets[1] = nil
	if _, err := RunFlat(in, p, identityOrder(2), FlatOptions{}); err == nil {
		t.Fatal("unexecutable task not detected")
	}
}

func TestGreedyDominanceProperty(t *testing.T) {
	// List scheduling invariant: when some machine still had queued
	// work, no machine idles while eligible tasks wait. For full
	// replication this means the makespan is at most total/m + max.
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw%7) + 1
		in := workload.MustNew(workload.Spec{Name: "uniform", N: 50, M: m, Alpha: 1.5, Seed: seed})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed))
		p := placement.Everywhere(in.N(), m)
		order := identityOrder(in.N())
		sort.Slice(order, func(a, b int) bool {
			return in.Tasks[order[a]].Estimate > in.Tasks[order[b]].Estimate
		})
		res, err := RunFlat(in, p, order, FlatOptions{})
		if err != nil {
			return false
		}
		if err := res.Schedule.Verify(in, p); err != nil {
			return false
		}
		total := 0.0
		for _, p := range in.Actuals() {
			total += p
		}
		bound := total/float64(m) + slices.Max(in.Actuals())
		return res.Schedule.Makespan() <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupPlacementStaysInGroup(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 40, M: 6, Alpha: 2, Seed: 5})
	groups, err := placement.PartitionGroups(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(40, 6)
	p.Groups = groups
	p.GroupOf = make([]int, 40)
	for j := 0; j < 40; j++ {
		g := j % 2
		p.GroupOf[j] = g
		p.Sets[j] = groups[g]
	}
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	res, err := RunFlatSharded(in, p, identityOrder(40), FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in, p); err != nil {
		t.Fatal(err)
	}
	for j, a := range res.Schedule.Assignments {
		g := p.GroupOf[j]
		lo, hi := g*3, g*3+3
		if a.Machine < lo || a.Machine >= hi {
			t.Fatalf("task %d (group %d) ran on machine %d", j, g, a.Machine)
		}
	}
}
