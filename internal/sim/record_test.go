package sim

import (
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// The dispatch record the batch engine leaves on its schedule for
// sched.Verify: one region per shard, so what it holds depends on the
// placement and never on how many workers ran the shards.

func TestDispatchRecordIsTheSameAtEveryWorkerCount(t *testing.T) {
	const n, m = 300, 12
	r := rng.New(5)
	act := make([]float64, n)
	for j := range act {
		act[j] = r.Uniform(0.1, 10)
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
		order := lptOrder(in)
		want, err := RunFlatSharded(in, p, order, FlatOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for _, j := range want.Schedule.Dispatched {
			seen[j] = true
		}
		if len(want.Schedule.Dispatched) != n || slices.Contains(seen, false) {
			t.Fatalf("seed %d: record %v is not a permutation of the tasks", seed, want.Schedule.Dispatched)
		}
		for _, w := range []int{2, 3, 16} {
			got, err := RunFlatSharded(in, p, order, FlatOptions{}, w)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Schedule.Dispatched, want.Schedule.Dispatched) {
				t.Errorf("seed %d, %d workers: record differs from one worker's", seed, w)
			}
		}
	}
}

// One runner carried from a 10,000-task run to a 3-task one: each
// schedule is verified by its own record, none of the first run's
// 10,000 entries outliving the Reset.
func TestRunnerRecordAcrossShapeChange(t *testing.T) {
	recorded := obs.GetCounter("sched.verify_recorded")
	var r FlatRunner
	for _, n := range []int{10_000, 3} {
		in := workload.MustNew(workload.Spec{Name: "zipf", N: n, M: 8, Alpha: 1.5, Seed: 9})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(10))
		p, order := everywhereLPT(in)
		res, err := r.RunSharded(in, p, order, FlatOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Schedule.Dispatched) != n {
			t.Fatalf("n=%d: record has %d entries", n, len(res.Schedule.Dispatched))
		}
		before := recorded.Load()
		if err := res.Schedule.Verify(in, p); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if recorded.Load() != before+1 {
			t.Errorf("n=%d: the schedule was not verified by its record", n)
		}
	}
}
