package sim

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// One runner carried from a 10,000-task run to a 3-task one, then
// through placements whose shards take the general loop and the linear
// replay side by side: each schedule is verified by its own record, one
// region per shard holding every task once, and none of an earlier
// run's entries outlives it.
func TestRunnerRecordAcrossShapeChange(t *testing.T) {
	recorded := obs.GetCounter("sched.verify_recorded")
	type shape struct {
		name  string
		in    *task.Instance
		p     *placement.Placement
		order []int
	}
	var shapes []shape
	for _, n := range []int{10_000, 3} {
		in := workload.MustNew(workload.Spec{Name: "zipf", N: n, M: 8, Alpha: 1.5, Seed: 9})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(10))
		p, order := everywhereLPT(in)
		shapes = append(shapes, shape{fmt.Sprintf("everywhere n=%d", n), in, p, order})
	}
	const n, m = 300, 12
	src := rng.New(5)
	act := make([]float64, n)
	for j := range act {
		act[j] = src.Uniform(0.1, 10)
	}
	in, err := task.New(m, 1, act, act)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		p := fuzzPlacement(n, m, seed)
		if seed == 4 { // many small shards, the linear replay among them
			for j := 0; j < n; j++ {
				p.Sets[j] = []int{j % m}
			}
		}
		shapes = append(shapes, shape{fmt.Sprintf("placement seed %d", seed), in, p, lptOrder(in)})
	}
	var r Runner
	for _, c := range shapes {
		res, err := r.RunSharded(c.in, c.p, c.order, FlatOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Schedule.Dispatched) != c.in.N() {
			t.Fatalf("%s: record has %d entries", c.name, len(res.Schedule.Dispatched))
		}
		before := recorded.Load()
		if err := res.Schedule.Verify(c.in, c.p); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if recorded.Load() != before+1 {
			t.Errorf("%s: the schedule was not verified by its record", c.name)
		}
	}
}
