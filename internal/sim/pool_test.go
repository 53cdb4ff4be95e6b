package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// The pooling contract of the runner production code reuses
// (algo.Scratch keeps a Runner per pooled scratch): a runner carried
// dirty from run to run is indistinguishable from a fresh one, and the
// Result it returns is its own, valid until its next run. These tests
// go through the unsharded Run over an everywhere placement;
// TestRunnerReuseMatchesFresh carries a runner across RunSharded
// calls over the placements that shard.

// poolCases builds instances whose shapes deliberately vary — n and m
// both grow and shrink across consecutive cases — so a reused runner's
// buffers are alternately too small and too large, exercising both
// branches of every grow.
func poolCases(t *testing.T) []*task.Instance {
	t.Helper()
	shapes := []struct {
		n, m int
		seed uint64
	}{
		{60, 8, 1}, {25, 4, 2}, {90, 12, 3}, {40, 6, 4}, {90, 12, 5}, {10, 2, 6},
	}
	ins := make([]*task.Instance, len(shapes))
	for i, s := range shapes {
		in := workload.MustNew(workload.Spec{
			Name: "zipf", N: s.n, M: s.m, Alpha: 1.8, Seed: s.seed,
		})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(s.seed^0xbeef))
		ins[i] = in
	}
	return ins
}

func everywhereLPT(in *task.Instance) (*placement.Placement, []int) {
	return placement.Everywhere(in.N(), in.M), lptOrder(in)
}

// TestRunnerReuseMatchesFreshRun: one runner carried dirty across
// instances of varying shape must produce exactly the schedule and
// trace of a fresh run — assignment by assignment, event by event. Any
// field Reset misses would surface here as a difference on the first
// shrink-then-grow transition.
func TestRunnerReuseMatchesFreshRun(t *testing.T) {
	var reused Runner
	for ci, in := range poolCases(t) {
		p, order := everywhereLPT(in)
		got, err := reused.Run(in, p, order, FlatOptions{})
		if err != nil {
			t.Fatalf("case %d: reused runner: %v", ci, err)
		}
		want, err := RunFlat(in, p, order, FlatOptions{})
		if err != nil {
			t.Fatalf("case %d: fresh run: %v", ci, err)
		}
		requireSameResult(t, "case "+itoa(ci), got, want.Schedule, TraceOf(want.Schedule))
	}
}

// TestRunnerResultInvalidatedByNextRun pins the ownership contract: the
// Result returned by Runner.Run aliases the runner's internal
// state, so callers must copy anything they keep. The test documents
// the aliasing rather than fighting it — if this ever fails, the
// contract comment on Runner is stale, not the code.
func TestRunnerResultInvalidatedByNextRun(t *testing.T) {
	ins := poolCases(t)
	var r Runner
	p, order := everywhereLPT(ins[0])
	first, err := r.Run(ins[0], p, order, FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	firstSched := first.Schedule
	p, order = everywhereLPT(ins[1])
	second, err := r.Run(ins[1], p, order, FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if firstSched != second.Schedule {
		t.Fatalf("Runner.Run returned a different *Schedule across calls; the pooling contract assumes reuse")
	}
}

// TestTakeScheduleHandsItOver: a schedule taken from the runner is the
// caller's. Every later run — the same shape, a larger and a smaller one
// — leaves it as it was taken, and each of those runs still matches a
// fresh one.
func TestTakeScheduleHandsItOver(t *testing.T) {
	ins := poolCases(t)
	var r Runner
	var taken []*sched.Schedule
	var kept []sched.Schedule
	for ci, in := range append(ins, ins[0]) {
		p, order := everywhereLPT(in)
		got, err := r.RunSharded(in, p, order, FlatOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunFlatSharded(in, p, order, FlatOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "case "+itoa(ci), got, want.Schedule, TraceOf(want.Schedule))
		s := r.TakeSchedule()
		if s == got.Schedule {
			t.Fatalf("case %d: TakeSchedule returned the runner's own schedule", ci)
		}
		taken = append(taken, s)
		kept = append(kept, sched.Schedule{M: s.M,
			Assignments: append([]sched.Assignment(nil), s.Assignments...),
			Dispatched:  append([]int32(nil), s.Dispatched...)})
	}
	for i, s := range taken {
		if !reflect.DeepEqual(*s, kept[i]) {
			t.Fatalf("schedule %d changed after the runner ran again", i)
		}
	}
}

// TestRunnerPoolSharedAcrossGoroutines hammers one sync.Pool of runners
// from many goroutines under -race: every goroutine runs the full case
// list through pooled runners and checks each makespan against the
// precomputed fresh-run value. The race detector verifies Get/Put
// hygiene; the makespan check verifies results are not
// cross-contaminated between goroutines.
func TestRunnerPoolSharedAcrossGoroutines(t *testing.T) {
	ins := poolCases(t)
	ps := make([]*placement.Placement, len(ins))
	orders := make([][]int, len(ins))
	want := make([]float64, len(ins))
	for i, in := range ins {
		ps[i], orders[i] = everywhereLPT(in)
		res, err := RunFlat(in, ps[i], orders[i], FlatOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Schedule.Makespan()
	}

	pool := sync.Pool{New: func() any { return new(Runner) }}
	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, in := range ins {
					r := pool.Get().(*Runner)
					res, err := r.Run(in, ps[i], orders[i], FlatOptions{})
					if err == nil {
						if got := res.Schedule.Makespan(); got != want[i] {
							err = fmt.Errorf("pooled runner on case %d: makespan %v, want %v", i, got, want[i])
						}
					}
					pool.Put(r)
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunnerResetZeroesSchedule locks the reset contract: after
// reset(n, m), no assignment or mode (the stealing run's
// fetch penalty) from a previous, larger run is visible; the slices
// prepare regrows are TestRunnerReuseMatchesFreshRun's to hold.
func TestRunnerResetZeroesSchedule(t *testing.T) {
	var r Runner
	in := poolCases(t)[0]
	p, order := everywhereLPT(in)
	if _, err := r.Run(in, p, order, FlatOptions{FetchPenalty: 2}); err != nil {
		t.Fatal(err)
	}
	r.reset(3, 2)
	if len(r.sched.Assignments) != 3 || r.sched.M != 2 {
		t.Fatalf("reset shaped schedule as (%d tasks, M=%d), want (3, 2)",
			len(r.sched.Assignments), r.sched.M)
	}
	if !reflect.DeepEqual(r.sched.Assignments, make([]sched.Assignment, 3)) {
		t.Errorf("assignments not zeroed after reset: %+v", r.sched.Assignments)
	}
	if r.batch.FetchPenalty != 0 || len(r.crashes) != 0 || r.openRun {
		t.Errorf("reset left dispatch state: fetch penalty %v, %d crashes, open %v",
			r.batch.FetchPenalty, len(r.crashes), r.openRun)
	}
}
