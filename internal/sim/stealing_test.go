package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/task"
)

func TestStealingPrefersLocal(t *testing.T) {
	// Machine 0 owns tasks 0,1; machine 1 owns task 2 (short). After
	// finishing task 2, machine 1 steals task 1 at penalty 2.
	est := []float64{4, 4, 1}
	in, err := task.New(2, 1, est, est)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(3, 2)
	p.Assign(0, 0)
	p.Assign(1, 0)
	p.Assign(2, 1)
	res, err := RunFlat(in, p, identityOrder(3), FlatOptions{FetchPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	a1 := res.Schedule.Assignments[1]
	if a1.Machine != 1 {
		t.Fatalf("task 1 not stolen: ran on machine %d", a1.Machine)
	}
	// Stolen: starts at 1 (after task 2), runs 4·2=8 → ends at 9.
	if a1.Start.Seconds() != 1 || a1.End.Seconds() != 9 {
		t.Fatalf("stolen task timing %+v, want start 1 end 9", a1)
	}
	// Machine 0 runs task 0 locally: ends at 4. Makespan 9.
	if res.Schedule.Makespan() != 9 {
		t.Fatalf("makespan = %v, want 9", res.Schedule.Makespan())
	}
}

func TestStealingPenaltyOneEqualsFullReplication(t *testing.T) {
	est := []float64{5, 3, 2, 2, 1}
	in, err := task.New(2, 1, est, est)
	if err != nil {
		t.Fatal(err)
	}
	// Arbitrary pinned placement; with penalty 1 stealing is free, so
	// the outcome must match list scheduling over full replication.
	p := placement.New(5, 2)
	for j := 0; j < 5; j++ {
		p.Assign(j, 0)
	}
	res, err := RunFlat(in, p, identityOrder(5), FlatOptions{FetchPenalty: 1})
	if err != nil {
		t.Fatal(err)
	}

	want, err := RunFlat(in, placement.Everywhere(5, 2), identityOrder(5), FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() != want.Schedule.Makespan() {
		t.Fatalf("penalty-1 stealing %v != full replication %v",
			res.Schedule.Makespan(), want.Schedule.Makespan())
	}
}

func TestStealingHighPenaltyDiscourages(t *testing.T) {
	// Balanced pinned placement: with a huge penalty, stealing a task
	// can still happen (machines steal when idle) but the makespan is
	// bounded by the local execution's anyway only if stealing never
	// helps; here we just check it completes and all tasks run.
	est := []float64{3, 3, 3, 3}
	in, err := task.New(2, 1, est, est)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.New(4, 2)
	p.Assign(0, 0)
	p.Assign(1, 0)
	p.Assign(2, 1)
	p.Assign(3, 1)
	res, err := RunFlat(in, p, identityOrder(4), FlatOptions{FetchPenalty: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly balanced: no machine ever idles while work remains, so
	// nothing is stolen and the makespan is 6.
	if res.Schedule.Makespan() != 6 {
		t.Fatalf("makespan = %v, want 6 (no stealing)", res.Schedule.Makespan())
	}
}

// TestStealingRejectsBadPenalty covers the fetch penalty's validation:
// a value below 1 or not finite, and the combinations no caller uses.
func TestStealingRejectsBadPenalty(t *testing.T) {
	in := inst(t, 2, 1, 1)
	p := placement.Everywhere(2, 2)
	for _, c := range []struct {
		name, wantSub string
		opts          FlatOptions
	}{
		{"below 1", "fetch penalty", FlatOptions{FetchPenalty: 0.5}},
		{"negative", "fetch penalty", FlatOptions{FetchPenalty: -2}},
		{"NaN", "fetch penalty", FlatOptions{FetchPenalty: math.NaN()}},
		{"infinite", "fetch penalty", FlatOptions{FetchPenalty: math.Inf(1)}},
		{"with Failures", "cannot be combined", FlatOptions{FetchPenalty: 2, Failures: []Failure{{Machine: 0, Time: 1}}}},
	} {
		_, err := RunFlatSharded(in, p, identityOrder(2), c.opts)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantSub)
		}
	}
}

// TestStealingMatchesOracle is the fetch-penalty differential: over
// pinned, group, mixed and ABO-shaped placements and a sweep of φ, the
// flat engine runs every task on the oracle's machine — byte for byte,
// trace included, on whole-second durations (exact in ticks under
// every φ of the sweep), within the quantization bound on continuous
// ones — sharded, and its schedule verifies under the
// penalized durations.
func TestStealingMatchesOracle(t *testing.T) {
	whole := openExactInstance(t, 48, 6, 71)
	order := lptOrder(whole)
	exact := append([]flatCase{
		{"none", whole, nonePlacement(48, 6, 71), order},
		{"group", whole, groupPlacement(t, 48, 6, 2, 71), order},
		{"mixed", whole, mixedPlacement(48, 6, 71), order},
		{"one-machine", inst(t, 1, 3, 1, 2), placement.Everywhere(3, 1), identityOrder(3)},
	}, sharedCases(t, whole, 2, 71)...)
	continuous := flatCases(t)
	for ci, c := range append(exact, continuous...) {
		for _, phi := range []float64{1, 1.5, 2, 4, 16} {
			label := c.name + "/phi=" + strconv.FormatFloat(phi, 'g', -1, 64)
			opts := FlatOptions{FetchPenalty: phi}
			want := oracleRun(c.in, c.p, c.order, opts)
			got, err := RunFlatSharded(c.in, c.p, c.order, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if ci < len(exact) {
				requireSameResult(t, label, got, want.Schedule, want.Trace)
			} else {
				requireCloseSchedule(t, label, c.in.N(), got.Schedule, want.Schedule)
			}
			in, p := c.in, c.p
			penalized := func(j, i int) float64 {
				if machineEligible(p, j, i) {
					return in.Tasks[j].Actual
				}
				return in.Tasks[j].Actual * phi
			}
			if err := got.Schedule.VerifyDurations(in, p, penalized); err != nil {
				t.Fatalf("%s: schedule fails VerifyDurations: %v", label, err)
			}
		}
	}
}

func TestDurationHookDefault(t *testing.T) {
	// The batch engine charges each task its actual time.
	est := []float64{2}
	act := []float64{3}
	in, err := task.New(1, 1.5, est, act)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFlat(in, placement.Everywhere(1, 1), identityOrder(1), FlatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() != 3 {
		t.Fatalf("makespan = %v", res.Schedule.Makespan())
	}
}
