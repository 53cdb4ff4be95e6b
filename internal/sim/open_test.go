package sim_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/tick"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// openShapes is the cross product of instance shapes and placement
// strategies the metamorphic and pooling tests sweep.
var openShapes = []struct {
	name string
	n, m int
	algo algo.Algorithm
}{
	{"none 20x4", 20, 4, algo.LPTNoChoice()},
	{"group2 30x6", 30, 6, algo.LSGroup(2)},
	{"group3 24x6", 24, 6, algo.LSGroup(3)},
	{"all 16x4", 16, 4, algo.LPTNoRestriction()},
	{"all 7x3", 7, 3, algo.LPTNoRestriction()},
}

// runOpen is the production open-system run the hand-computed tests
// below pin: the flat engine through its shard decomposition.
func runOpen(in *task.Instance, p *placement.Placement, order []int, arrive []float64,
	opts sim.OpenOptions) (*sim.OpenResult, error) {
	return sim.RunFlatOpenSharded(in, p, order, arrive, opts)
}

func openInstance(t *testing.T, n, m int, seed uint64) *task.Instance {
	t.Helper()
	in := workload.MustNew(workload.Spec{
		Name: "uniform", N: n, M: m, Alpha: 1.5, Seed: seed,
	})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed+1))
	return in
}

// TestOpenMatchesBatch is the metamorphic anchor of the open mode,
// held on the oracle (TestFlatOpenMatchesBatch holds it on the
// engines): with every arrival at t=0 and sim.CancelOnStart, the open
// loop must reproduce the batch clock scan's schedule byte-for-byte
// across placement strategies — batch is the all-arrivals-at-zero
// corner of the one queueing model.
func TestOpenMatchesBatch(t *testing.T) {
	for _, shape := range openShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			for seed := uint64(0); seed < 5; seed++ {
				in := openInstance(t, shape.n, shape.m, 100+seed)
				p, err := shape.algo.Place(in)
				if err != nil {
					t.Fatal(err)
				}
				order := shape.algo.Order(in)

				batch := sim.OracleRun(in, p, order, sim.FlatOptions{})
				open := sim.OracleRunOpen(in, p, order, make([]float64, in.N()), sim.OpenOptions{Policy: sim.CancelOnStart})
				if !reflect.DeepEqual(open.Schedule.Assignments, batch.Schedule.Assignments) {
					t.Fatalf("seed %d: open schedule diverged from batch\n open: %+v\nbatch: %+v",
						seed, open.Schedule.Assignments, batch.Schedule.Assignments)
				}
				if open.CancelledReplicas != 0 || open.WastedTime != 0 {
					t.Fatalf("cancel-on-start wasted work: %d replicas, %v time",
						open.CancelledReplicas, open.WastedTime)
				}
				// Batch arrivals: response time == completion time, in the
				// schedule's ticks.
				for j, a := range batch.Schedule.Assignments {
					if r, err := tick.FromSeconds(open.Responses[j]); err != nil || r != a.End {
						t.Fatalf("task %d response %v != completion %v", j, open.Responses[j], a.End)
					}
				}
			}
		})
	}
}

// TestOpenResponseTimesHandComputed pins the event interleaving on a
// worked example: 2 machines, full replication, staggered arrivals.
func TestOpenResponseTimesHandComputed(t *testing.T) {
	in := &task.Instance{M: 2, Alpha: 1, Tasks: []task.Task{
		{ID: 0, Estimate: 10, Actual: 10},
		{ID: 1, Estimate: 4, Actual: 4},
		{ID: 2, Estimate: 3, Actual: 3},
	}}
	p := placement.New(3, 2)
	for j := 0; j < 3; j++ {
		p.Sets[j] = []int{0, 1}
	}
	arrive := []float64{0, 1, 2}
	res, err := runOpen(in, p, []int{0, 1, 2}, arrive, sim.OpenOptions{Policy: sim.CancelOnStart})
	if err != nil {
		t.Fatal(err)
	}
	// t=0: task 0 arrives, wakes both machines; machine 0 starts it
	// (ends 10), machine 1 finds nothing and goes dormant. t=1: task 1
	// arrives, wakes machine 1, runs 1→5. t=2: task 2 arrives; both
	// machines busy. t=5: machine 1 idle, starts task 2, 5→8.
	want := []float64{10 - 0, 5 - 1, 8 - 2}
	if !reflect.DeepEqual(res.Responses, want) {
		t.Fatalf("responses = %v, want %v", res.Responses, want)
	}
	if res.End != 10 {
		t.Fatalf("End = %v, want 10", res.End)
	}
}

// TestOpenCancelPoliciesDiverge builds a scenario where racing
// replicas pay off: the replica on machine 1 is much faster than the
// one machine 0 starts first. Cancel-on-start is stuck with the slow
// copy; cancel-on-completion races both and wins, paying measurable
// waste.
func TestOpenCancelPoliciesDiverge(t *testing.T) {
	in := &task.Instance{M: 2, Alpha: 1, Tasks: []task.Task{
		{ID: 0, Estimate: 10, Actual: 10},
	}}
	p := placement.New(1, 2)
	p.Sets[0] = []int{0, 1}
	dur := func(taskID, machine int) float64 {
		if machine == 1 {
			return 2 // fast replica
		}
		return 10
	}
	slow, err := runOpen(in, p, []int{0}, []float64{0}, sim.OpenOptions{
		Policy: sim.CancelOnStart, Duration: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := runOpen(in, p, []int{0}, []float64{0}, sim.OpenOptions{
		Policy: sim.CancelOnCompletion, CancelCost: 0.5, Duration: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Responses[0] != 10 {
		t.Fatalf("cancel-on-start response = %v, want 10", slow.Responses[0])
	}
	if fast.Responses[0] != 2 {
		t.Fatalf("cancel-on-completion response = %v, want 2", fast.Responses[0])
	}
	// Machine 0 ran the losing replica for 2 time units, plus the 0.5
	// cancellation penalty.
	if fast.CancelledReplicas != 1 || fast.WastedTime != 2.5 {
		t.Fatalf("waste = %d replicas / %v time, want 1 / 2.5", fast.CancelledReplicas, fast.WastedTime)
	}
	if fast.Schedule.Assignments[0].Machine != 1 {
		t.Fatalf("winning replica on machine %d, want 1", fast.Schedule.Assignments[0].Machine)
	}
	// The cancelled machine is busy until 2 + 0.5.
	if fast.End != 2.5 {
		t.Fatalf("End = %v, want 2.5", fast.End)
	}
}

// TestOpenCancelledMachineResumes checks that a machine freed by a
// cancellation picks up queued work after paying the penalty.
func TestOpenCancelledMachineResumes(t *testing.T) {
	in := &task.Instance{M: 2, Alpha: 1, Tasks: []task.Task{
		{ID: 0, Estimate: 8, Actual: 8},
		{ID: 1, Estimate: 4, Actual: 4},
	}}
	p := placement.New(2, 2)
	p.Sets[0] = []int{0, 1}
	p.Sets[1] = []int{0} // only machine 0 may run task 1
	dur := func(taskID, machine int) float64 {
		if taskID == 0 && machine == 1 {
			return 2
		}
		return in.Tasks[taskID].Actual
	}
	// t=0: task 0 starts on both machines (machine 0 slow at 8, machine
	// 1 fast at 2). Task 1 arrives at t=1, eligible only on busy machine
	// 0. t=2: machine 1 completes task 0; machine 0's replica cancelled,
	// free at 3 after CancelCost=1; t=3 it starts task 1, ends 7.
	res, err := runOpen(in, p, []int{0, 1}, []float64{0, 1}, sim.OpenOptions{
		Policy: sim.CancelOnCompletion, CancelCost: 1, Duration: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 6} // task 1: done at 7, arrived at 1
	if !reflect.DeepEqual(res.Responses, want) {
		t.Fatalf("responses = %v, want %v", res.Responses, want)
	}
	a := res.Schedule.Assignments[1]
	if a.Machine != 0 || a.Start.Seconds() != 3 || a.End.Seconds() != 7 {
		t.Fatalf("task 1 assignment = %+v, want machine 0, 3→7", a)
	}
}

// TestOpenLatePriorityArrival checks that a high-priority task
// arriving late sorts ahead of lower-priority queued work.
func TestOpenLatePriorityArrival(t *testing.T) {
	in := &task.Instance{M: 1, Alpha: 1, Tasks: []task.Task{
		{ID: 0, Estimate: 5, Actual: 5},
		{ID: 1, Estimate: 5, Actual: 5},
		{ID: 2, Estimate: 5, Actual: 5},
	}}
	p := placement.New(3, 1)
	for j := 0; j < 3; j++ {
		p.Sets[j] = []int{0}
	}
	// Priority order: 2 ≻ 1 ≻ 0. Task 0 arrives first and runs; tasks 1
	// then 2 arrive while the machine is busy; at t=5 the machine must
	// pick task 2 (higher priority) despite task 1 arriving earlier.
	res, err := runOpen(in, p, []int{2, 1, 0}, []float64{0, 1, 2}, sim.OpenOptions{Policy: sim.CancelOnStart})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 14, 8} // task 0: 0→5; task 2: 5→10 (arr 2); task 1: 10→15 (arr 1)
	if !reflect.DeepEqual(res.Responses, want) {
		t.Fatalf("responses = %v, want %v", res.Responses, want)
	}
}

// TestOpenRunnerPoolingDifferential runs the same trials through one
// reused sim.Runner (its unsharded RunOpen; TestFlatOpenReuseMatchesFresh
// reuses one across RunOpenSharded calls) and through fresh package-level
// calls; results must be deeply equal even as shapes vary between runs.
func TestOpenRunnerPoolingDifferential(t *testing.T) {
	var pooled sim.Runner
	for trial := 0; trial < 12; trial++ {
		shape := openShapes[trial%len(openShapes)]
		in := openInstance(t, shape.n, shape.m, 500+uint64(trial))
		p, err := shape.algo.Place(in)
		if err != nil {
			t.Fatal(err)
		}
		order := shape.algo.Order(in)
		arrive, err := workload.Arrivals(in.N(), workload.ArrivalSpec{
			Process: "poisson", Rate: 0.7, Seed: 900 + uint64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := sim.OpenOptions{Policy: sim.CancelOnCompletion, CancelCost: 0.25}
		if trial%2 == 0 {
			opts = sim.OpenOptions{Policy: sim.CancelOnStart}
		}
		fresh, err := new(sim.Runner).RunOpen(in, p, order, arrive, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pooled.RunOpen(in, p, order, arrive, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Schedule.Assignments, fresh.Schedule.Assignments) ||
			!reflect.DeepEqual(got.Responses, fresh.Responses) ||
			got.CancelledReplicas != fresh.CancelledReplicas ||
			got.WastedTime != fresh.WastedTime ||
			got.End != fresh.End {
			t.Fatalf("trial %d (%s): pooled result diverged from fresh", trial, shape.name)
		}
	}
}

// TestOpenReplicationHelpsTail runs a load where racing replicas
// should cut the response-time tail versus no replication, under a
// deterministic per-(task,machine) slowdown.
func TestOpenReplicationHelpsTail(t *testing.T) {
	const n, m = 40, 4
	in := openInstance(t, n, m, 7)
	arrive, err := workload.Arrivals(n, workload.ArrivalSpec{Process: "poisson", Rate: 0.05, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic straggler model: some (task, machine) pairs are
	// 8x slower. Racing replicas dodge the slow pairs.
	dur := func(taskID, machine int) float64 {
		d := in.Tasks[taskID].Actual
		if (rng.New(uint64(taskID)*31 + uint64(machine)).Float64()) < 0.3 {
			return d * 8
		}
		return d
	}
	none := algo.LPTNoChoice()
	pNone, err := none.Place(in)
	if err != nil {
		t.Fatal(err)
	}
	rNone, err := runOpen(in, pNone, none.Order(in), arrive, sim.OpenOptions{Policy: sim.CancelOnStart, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	all := algo.LPTNoRestriction()
	pAll, err := all.Place(in)
	if err != nil {
		t.Fatal(err)
	}
	rAll, err := runOpen(in, pAll, all.Order(in), arrive, sim.OpenOptions{Policy: sim.CancelOnCompletion, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	maxResp := func(xs []float64) float64 {
		out := 0.0
		for _, x := range xs {
			if x > out {
				out = x
			}
		}
		return out
	}
	if maxResp(rAll.Responses) >= maxResp(rNone.Responses) {
		t.Fatalf("racing replicas did not cut the tail: all=%v none=%v",
			maxResp(rAll.Responses), maxResp(rNone.Responses))
	}
	if rAll.CancelledReplicas == 0 {
		t.Fatal("cancel-on-completion never cancelled a replica at low load")
	}
}

func TestOpenRunValidation(t *testing.T) {
	in := openInstance(t, 4, 2, 1)
	p := algo.LPTNoRestriction()
	pl, err := p.Place(in)
	if err != nil {
		t.Fatal(err)
	}
	order := p.Order(in)
	arrive := make([]float64, 4)
	cases := []struct {
		name string
		run  func() error
		frag string
	}{
		{"placement shape", func() error {
			bad := placement.New(3, 2)
			_, err := runOpen(in, bad, order, arrive, sim.OpenOptions{})
			return err
		}, "placement shape"},
		{"order length", func() error {
			_, err := runOpen(in, pl, []int{0, 1}, arrive, sim.OpenOptions{})
			return err
		}, "priority order"},
		{"order not permutation", func() error {
			_, err := runOpen(in, pl, []int{0, 1, 2, 2}, arrive, sim.OpenOptions{})
			return err
		}, "not a permutation"},
		{"arrive length", func() error {
			_, err := runOpen(in, pl, order, []float64{0}, sim.OpenOptions{})
			return err
		}, "arrival times"},
		{"arrive NaN", func() error {
			_, err := runOpen(in, pl, order, []float64{0, math.NaN(), 1, 2}, sim.OpenOptions{})
			return err
		}, "finite"},
		{"arrive unsorted", func() error {
			_, err := runOpen(in, pl, order, []float64{3, 1, 2, 4}, sim.OpenOptions{})
			return err
		}, "not sorted"},
		{"negative cancel cost", func() error {
			_, err := runOpen(in, pl, order, arrive, sim.OpenOptions{CancelCost: -1})
			return err
		}, "cancel cost"},
		{"unknown policy", func() error {
			_, err := runOpen(in, pl, order, arrive, sim.OpenOptions{Policy: sim.CancelPolicy(9)})
			return err
		}, "cancel policy"},
		{"starved task", func() error {
			bad := placement.New(4, 2)
			for j := 0; j < 4; j++ {
				bad.Sets[j] = []int{0}
			}
			bad.Sets[3] = nil // never eligible anywhere
			_, err := runOpen(in, bad, order, arrive, sim.OpenOptions{})
			return err
		}, "task 3"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}

func TestCancelPolicyString(t *testing.T) {
	if sim.CancelOnStart.String() != "cancel-on-start" ||
		sim.CancelOnCompletion.String() != "cancel-on-completion" {
		t.Fatal("policy names changed")
	}
	if got := sim.CancelPolicy(7).String(); !strings.Contains(got, "7") {
		t.Fatalf("unknown policy String = %q", got)
	}
}
