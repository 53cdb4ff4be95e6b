package sim_test

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/task"
)

// ExampleRunFlat schedules three fully replicated tasks on two machines
// with Graham-style list dispatch.
func ExampleRunFlat() {
	est := []float64{3, 2, 2}
	in, _ := task.New(2, 1, est, est)
	p := placement.Everywhere(3, 2)

	res, _ := sim.RunFlat(in, p, []int{0, 1, 2}, sim.FlatOptions{})
	fmt.Printf("makespan: %g\n", res.Schedule.Makespan())
	for j, a := range res.Schedule.Assignments {
		fmt.Printf("task %d on machine %d at t=%g\n", j, a.Machine, a.Start.Seconds())
	}
	// Output:
	// makespan: 4
	// task 0 on machine 0 at t=0
	// task 1 on machine 1 at t=0
	// task 2 on machine 1 at t=2
}

// ExampleFailure shows a crash losing in-flight work that a replica
// elsewhere absorbs.
func ExampleFailure() {
	est := []float64{10, 1}
	in, _ := task.New(2, 1, est, est)
	p := placement.Everywhere(2, 2)

	res, err := sim.RunFlat(in, p, []int{0, 1}, sim.FlatOptions{
		Failures: []sim.Failure{{Machine: 0, Time: 5}},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	a := res.Schedule.Assignments[0]
	fmt.Printf("task 0 re-ran on machine %d from t=%g to t=%g\n", a.Machine, a.Start.Seconds(), a.End.Seconds())
	// Output:
	// task 0 re-ran on machine 1 from t=5 to t=15
}

// ExampleFlatOptions_fetchPenalty prices remote execution: machine 1
// takes a task pinned to machine 0 at double duration once its own
// queue drains.
func ExampleFlatOptions_fetchPenalty() {
	est := []float64{4, 4, 1}
	in, _ := task.New(2, 1, est, est)
	p := placement.New(3, 2)
	p.Assign(0, 0)
	p.Assign(1, 0)
	p.Assign(2, 1)

	res, _ := sim.RunFlat(in, p, []int{0, 1, 2}, sim.FlatOptions{FetchPenalty: 2})
	a := res.Schedule.Assignments[1]
	fmt.Printf("stolen task 1 ran on machine %d for %g time units\n",
		a.Machine, (a.End - a.Start).Seconds())
	// Output:
	// stolen task 1 ran on machine 1 for 8 time units
}
