package sim

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/tick"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// flatWorkerCounts is the satellite-1 matrix: sequential, small,
// oversubscribed, and whatever this host actually has.
func flatWorkerCounts() []int {
	return []int{1, 2, 8, runtime.NumCPU()}
}

// flatCase is one (instance, placement, order) triple for the
// differential suite.
type flatCase struct {
	name  string
	in    *task.Instance
	p     *placement.Placement
	order []int
}

// lptOrder ranks tasks by non-increasing estimate (the paper's LPT
// priority), ties toward lower IDs.
func lptOrder(in *task.Instance) []int {
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Tasks[order[a]].Estimate > in.Tasks[order[b]].Estimate
	})
	return order
}

// nonePlacement maps each task to a single machine — every machine
// becomes its own singleton shard.
func nonePlacement(n, m int, seed uint64) *placement.Placement {
	p := placement.New(n, m)
	r := rng.New(seed)
	for j := 0; j < n; j++ {
		p.Assign(j, r.Intn(m))
	}
	return p
}

// groupPlacement partitions machines into ⌈m/k⌉ groups of size ≤ k and
// places each task on one whole group — the paper's group:k strategy,
// which is exactly the shape the sharded runner decomposes.
func groupPlacement(t *testing.T, n, m, k int, seed uint64) *placement.Placement {
	t.Helper()
	groups, err := placement.PartitionGroups(m, k)
	if err != nil {
		t.Fatalf("PartitionGroups(%d,%d): %v", m, k, err)
	}
	p := placement.New(n, m)
	r := rng.New(seed)
	for j := 0; j < n; j++ {
		p.Sets[j] = groups[r.Intn(len(groups))]
	}
	return p
}

// mixedPlacement mixes singleton, group, and everywhere sets in one
// instance so a single run exercises replayLinear and replayGeneral
// shards side by side (plus the big component they all merge into for
// the tasks placed everywhere — exercised by sharedCases instead).
func mixedPlacement(n, m int, seed uint64) *placement.Placement {
	p := placement.New(n, m)
	r := rng.New(seed)
	half := m / 2
	for j := 0; j < n; j++ {
		switch j % 3 {
		case 0: // singleton on a low machine
			p.Assign(j, r.Intn(half))
		case 1: // pair group among high machines
			a := half + r.Intn(m-half)
			b := half + (a-half+1)%(m-half)
			if a == b {
				p.Assign(j, a)
			} else {
				p.Sets[j] = []int{min(a, b), max(a, b)}
			}
		default: // singleton on a high machine, densifying shards
			p.Assign(j, half+r.Intn(m-half))
		}
	}
	return p
}

// sharedCases builds the placements in which one shard holds both
// kinds of task the batch engine files differently — replicated on the
// whole shard (one entry on the shard's list) and on fewer machines (a
// copy in each replica's queue) — so every idle machine makes pick
// choose between the list's head and its own queue's:
//
//   - abo: each task pinned to one machine or replicated everywhere,
//     ABO_Δ's S2 and S1;
//   - gabo: pinned or replicated on one of the k groups, GABO's
//     shape, plus one pair set bridging the first two groups — which
//     merges them into one shard that neither group's sets span, so
//     those travel in queues while the other groups' stay on lists;
//   - tail: the larger half by estimate pinned, the rest everywhere,
//     ReplicateTail's shape.
//
// Each runs under three orders: replicated tasks all ranked before the
// others, all after, and alternating with them.
func sharedCases(t *testing.T, in *task.Instance, k int, seed uint64) []flatCase {
	t.Helper()
	n, m := in.N(), in.M
	lpt := lptOrder(in)
	groups, err := placement.PartitionGroups(m, k)
	if err != nil {
		t.Fatalf("PartitionGroups(%d,%d): %v", m, k, err)
	}
	all := placement.Everywhere(1, m).Sets[0]
	r := rng.New(seed ^ 0xab0)
	build := func(replicate func(j int) []int) (*placement.Placement, []bool) {
		p := placement.New(n, m)
		shared := make([]bool, n)
		for j := 0; j < n; j++ {
			if set := replicate(j); set != nil {
				p.Sets[j], shared[j] = set, true
			} else {
				p.Assign(j, r.Intn(m))
			}
		}
		return p, shared
	}
	abo, aboShared := build(func(int) []int {
		if r.Intn(2) == 0 {
			return all
		}
		return nil
	})
	gabo, gaboShared := build(func(j int) []int {
		switch {
		case j == 0 && len(groups) > 1:
			g0 := groups[0]
			return []int{g0[len(g0)-1], groups[1][0]}
		case r.Intn(2) == 0:
			return groups[r.Intn(len(groups))]
		}
		return nil
	})
	rank := make([]int, n)
	for pos, j := range lpt {
		rank[j] = pos
	}
	tail, tailShared := build(func(j int) []int {
		if rank[j] >= n/2 {
			return all
		}
		return nil
	})

	var cases []flatCase
	for _, c := range []struct {
		name   string
		p      *placement.Placement
		shared []bool
	}{{"abo", abo, aboShared}, {"gabo", gabo, gaboShared}, {"tail", tail, tailShared}} {
		var first, rest []int // replicated tasks and the others, each in LPT order
		for _, j := range lpt {
			if c.shared[j] {
				first = append(first, j)
			} else {
				rest = append(rest, j)
			}
		}
		var alternate []int
		for i := 0; i < len(first) || i < len(rest); i++ {
			if i < len(first) {
				alternate = append(alternate, first[i])
			}
			if i < len(rest) {
				alternate = append(alternate, rest[i])
			}
		}
		cases = append(cases,
			flatCase{c.name + "/shared-first", in, c.p, append(append([]int(nil), first...), rest...)},
			flatCase{c.name + "/shared-last", in, c.p, append(append([]int(nil), rest...), first...)},
			flatCase{c.name + "/alternating", in, c.p, alternate},
		)
	}
	return cases
}

// flatCases builds the none/group:k/all/mixed matrix and sharedCases
// over a few shapes, with perturbed (continuous) durations.
func flatCases(t *testing.T) []flatCase {
	t.Helper()
	var cases []flatCase
	shapes := []struct {
		n, m, k int
		seed    uint64
	}{
		{40, 8, 2, 11},
		{60, 12, 3, 12},
		{25, 5, 5, 13}, // group of m: single shard
		{30, 6, 1, 14}, // group of 1: all singleton shards
	}
	for _, s := range shapes {
		in := workload.MustNew(workload.Spec{
			Name: "zipf", N: s.n, M: s.m, Alpha: 1.8, Seed: s.seed,
		})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(s.seed^0x5eed))
		order := lptOrder(in)
		cases = append(cases,
			flatCase{"none", in, nonePlacement(s.n, s.m, s.seed), order},
			flatCase{"group", in, groupPlacement(t, s.n, s.m, s.k, s.seed), order},
			flatCase{"all", in, placement.Everywhere(s.n, s.m), order},
			flatCase{"mixed", in, mixedPlacement(s.n, s.m, s.seed), order},
		)
		cases = append(cases, sharedCases(t, in, s.k, s.seed)...)
	}
	return cases
}

// requireCloseSchedule is the continuous-duration comparison against
// the float-time oracle: ticks quantize, so dispatch decisions must
// still agree (the seeds hit no sub-nanotick ties) and every start/end
// must sit within the accumulated quantization bound — ≤ half a tick
// per task in a machine's chain of at most n tasks, plus float slack
// for the oracle's own sums: n+1 ticks.
func requireCloseSchedule(t *testing.T, label string, n int, got, want *sched.Schedule) {
	t.Helper()
	for j, ga := range got.Assignments {
		wa := want.Assignments[j]
		if ga.Machine != wa.Machine {
			t.Fatalf("%s: task %d on machine %d, oracle chose %d",
				label, j, ga.Machine, wa.Machine)
		}
		if drift(ga.Start, wa.Start) > n+1 || drift(ga.End, wa.End) > n+1 {
			t.Fatalf("%s: task %d ticks (%d,%d) drift from (%d,%d) beyond %d",
				label, j, ga.Start, ga.End, wa.Start, wa.End, n+1)
		}
	}
}

// drift is |a−b| in ticks.
func drift(a, b tick.Tick) int {
	if a < b {
		a, b = b, a
	}
	return int(a - b)
}

// requireSameResult holds a run to want, assignment by assignment, and
// the trace TraceOf derives from it to wantTrace, event by event: the
// trace derived from another engine run's schedule, or the one the
// oracle records.
func requireSameResult(t *testing.T, label string, got *Result, want *sched.Schedule, wantTrace []Event) {
	t.Helper()
	if !reflect.DeepEqual(got.Schedule.Assignments, want.Assignments) {
		t.Errorf("%s: schedule diverges", label)
	}
	if got.Schedule.M != want.M {
		t.Errorf("%s: M = %d, want %d", label, got.Schedule.M, want.M)
	}
	trace := TraceOf(got.Schedule)
	if len(trace) != len(wantTrace) {
		t.Fatalf("%s: trace length %d, want %d", label, len(trace), len(wantTrace))
	}
	for i := range trace {
		if trace[i] != wantTrace[i] {
			t.Fatalf("%s: trace[%d] = %+v, want %+v", label, i, trace[i], wantTrace[i])
		}
	}
}

// TestFlatShardedMatchesRun is the core satellite-1 differential:
// RunSharded is byte-identical — assignment by
// assignment, trace event by trace event — to the sequential flat Run,
// across all placement families.
func TestFlatShardedMatchesRun(t *testing.T) {
	for _, c := range flatCases(t) {
		want, err := RunFlat(c.in, c.p, c.order, FlatOptions{})
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		if err := want.Schedule.Verify(c.in, c.p); err != nil {
			t.Fatalf("%s: sequential flat schedule invalid: %v", c.name, err)
		}
		got, err := RunFlatSharded(c.in, c.p, c.order, FlatOptions{})
		if err != nil {
			t.Fatalf("%s: RunSharded: %v", c.name, err)
		}
		requireSameResult(t, c.name, got, want.Schedule, TraceOf(want.Schedule))
	}
}

// TestFlatMatchesEventEngineExact pins the flat engine to the
// float-time oracle byte-for-byte on integer durations, where tick
// quantization is exact: same dispatch decisions, same start/end
// floats, same trace. This is the cross-engine golden equivalence.
func TestFlatMatchesEventEngineExact(t *testing.T) {
	shapes := []struct {
		n, m, k int
		seed    uint64
	}{{40, 8, 2, 21}, {55, 10, 5, 22}, {24, 6, 3, 23}}
	for _, s := range shapes {
		est := make([]float64, s.n)
		act := make([]float64, s.n)
		r := rng.New(s.seed)
		for j := range act {
			act[j] = float64(1 + r.Intn(9)) // whole seconds: exact in ticks
			est[j] = float64(1 + r.Intn(9))
		}
		in, err := task.New(s.m, 9, est, act)
		if err != nil {
			t.Fatal(err)
		}
		order := lptOrder(in)
		for _, c := range append([]flatCase{
			{"none", in, nonePlacement(s.n, s.m, s.seed), order},
			{"group", in, groupPlacement(t, s.n, s.m, s.k, s.seed), order},
			{"all", in, placement.Everywhere(s.n, s.m), order},
		}, sharedCases(t, in, s.k, s.seed)...) {
			want := oracleRun(in, c.p, c.order, FlatOptions{})
			got, err := RunFlatSharded(in, c.p, c.order, FlatOptions{})
			if err != nil {
				t.Fatalf("%s: flat: %v", c.name, err)
			}
			requireSameResult(t, c.name+"/cross-engine", got, want.Schedule, want.Trace)
		}
	}
}

// TestFlatMatchesEventEngineEpsilon compares the engine with the oracle
// on continuous durations, where ticks quantize: dispatch decisions
// must still agree (the seeds hit no sub-nanotick ties) and every
// start/end must sit within the accumulated quantization bound of half
// a tick per task in the machine's chain.
func TestFlatMatchesEventEngineEpsilon(t *testing.T) {
	for _, c := range flatCases(t) {
		want := oracleRun(c.in, c.p, c.order, FlatOptions{})
		got, err := RunFlat(c.in, c.p, c.order, FlatOptions{})
		if err != nil {
			t.Fatalf("%s: flat engine: %v", c.name, err)
		}
		if err := got.Schedule.Verify(c.in, c.p); err != nil {
			t.Fatalf("%s: flat schedule fails Verify: %v", c.name, err)
		}
		requireCloseSchedule(t, c.name, c.in.N(), got.Schedule, want.Schedule)
	}
}

// crashPlan builds integer-and-half crash times, exactly representable
// in both float64 and ticks, so both engines resolve every
// crash-vs-completion boundary identically.
func crashPlan(p *placement.Placement, seed uint64, count int) []Failure {
	r := rng.New(seed)
	fs := make([]Failure, 0, count)
	for len(fs) < count {
		fs = append(fs, Failure{
			Machine: r.Intn(p.M),
			Time:    float64(r.Intn(20)) * 0.5,
		})
	}
	return fs
}

// TestFlatFailuresMatchSequential differentially tests the fail-stop
// loop: a run with Failures must match oracleRunFailures — same
// surviving schedule or the very same error — sharded.
func TestFlatFailuresMatchSequential(t *testing.T) {
	shapes := []struct {
		n, m, k int
		seed    uint64
	}{{40, 8, 2, 31}, {60, 12, 3, 32}, {30, 6, 6, 33}}
	for _, s := range shapes {
		est := make([]float64, s.n)
		act := make([]float64, s.n)
		r := rng.New(s.seed)
		for j := range act {
			act[j] = float64(1 + r.Intn(6))
			est[j] = act[j]
		}
		in, err := task.New(s.m, 1, est, act)
		if err != nil {
			t.Fatal(err)
		}
		lpt := lptOrder(in)
		cases := append([]flatCase{
			{"group", in, groupPlacement(t, s.n, s.m, s.k, s.seed), lpt},
			{"all", in, placement.Everywhere(s.n, s.m), lpt},
			{"none", in, nonePlacement(s.n, s.m, s.seed), lpt}, // mostly unsurvivable: error paths
		}, sharedCases(t, in, s.k, s.seed)...) // pinned tasks die with their machine; the rest retry
		for pi, c := range cases {
			p, order := c.p, c.order
			for round := uint64(0); round < 4; round++ {
				failures := crashPlan(p, s.seed*101+round, int(round)+1)
				wantSched, wantErr := oracleRunFailures(in, p, order, failures)
				got, err := RunFlatSharded(in, p, order, FlatOptions{Failures: failures})
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("p%d round %d: err = %v, sequential err = %v",
						pi, round, err, wantErr)
				}
				if err != nil {
					if err.Error() != wantErr.Error() {
						t.Fatalf("p%d round %d: err %q, sequential %q",
							pi, round, err, wantErr)
					}
					if errors.Is(wantErr, ErrUnsurvivable) != errors.Is(err, ErrUnsurvivable) {
						t.Fatalf("p%d round %d: ErrUnsurvivable identity diverges", pi, round)
					}
					continue
				}
				if !reflect.DeepEqual(got.Schedule.Assignments, wantSched.Assignments) {
					t.Fatalf("p%d round %d: schedule diverges from the oracle",
						pi, round)
				}
			}
		}
	}
}

// TestFlatFailureBoundaryCrash pins the exact-boundary branch: a crash
// at precisely a task's completion instant completes the task, in the
// engine and the oracle alike, instead of losing it.
func TestFlatFailureBoundaryCrash(t *testing.T) {
	in := inst(t, 2, 3, 1, 1, 1)
	p := placement.Everywhere(4, 2)
	order := identityOrder(4)
	failures := []Failure{{Machine: 0, Time: 3}}
	want, err := oracleRunFailures(in, p, order, failures)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	got, err := RunFlatSharded(in, p, order, FlatOptions{Failures: failures})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schedule.Assignments, want.Assignments) {
		t.Errorf("boundary-crash schedule diverges")
	}
}

// TestFlatCrashLosesShardListTask crashes a machine in the middle of a
// task it took from the shard list: the task is re-offered and runs on
// the survivor, which meanwhile chose between its own queue and the
// list — the oracle's schedule.
func TestFlatCrashLosesShardListTask(t *testing.T) {
	in := inst(t, 2, 1, 4, 4)
	p := placement.Everywhere(3, 2)
	p.Assign(0, 0) // pinned and ranked first; tasks 1 and 2 form the list
	order := identityOrder(3)
	failures := []Failure{{Machine: 1, Time: 2}} // machine 1 is two seconds into task 1
	want, err := oracleRunFailures(in, p, order, failures)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if a := want.Assignments[1]; a.Machine != 0 || a.Start.Seconds() != 5 {
		t.Fatalf("task 1 = %+v, want a retry on machine 0 at t=5", a)
	}
	got, err := RunFlatSharded(in, p, order, FlatOptions{Failures: failures})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schedule.Assignments, want.Assignments) {
		t.Errorf("schedule %+v, want %+v", got.Schedule.Assignments, want.Assignments)
	}
}

// TestFlatDispatchCounters pins what sim.queue_entries and
// sim.shared_dispatches say about a run: placements whose every replica
// set is its whole shard — none, groups, everywhere — build no
// per-machine queue entry and hand every task out from a shard list;
// the ABO shape builds one entry per replica of a task that is not
// replicated shard-wide, Σ|M_j| over those, and nothing for the rest.
func TestFlatDispatchCounters(t *testing.T) {
	const n, m = 60, 6
	in := openExactInstance(t, n, m, 41)
	order := lptOrder(in)
	queued, shared := obs.GetCounter("sim.queue_entries"), obs.GetCounter("sim.shared_dispatches")
	run := func(name string, p *placement.Placement, wantQueued int64) {
		t.Helper()
		q0, s0 := queued.Load(), shared.Load()
		if _, err := RunFlatSharded(in, p, order, FlatOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if q, s := queued.Load()-q0, shared.Load()-s0; q != wantQueued || s != n-wantQueued {
			t.Errorf("%s: %d queue entries, %d shard-list dispatches; want %d, %d",
				name, q, s, wantQueued, n-wantQueued)
		}
	}
	run("none", nonePlacement(n, m, 41), 0)
	run("groups", groupPlacement(t, n, m, 3, 41), 0)
	run("everywhere", placement.Everywhere(n, m), 0)

	abo := placement.Everywhere(n, m)
	pinned := int64(0)
	for j := 0; j < n; j += 3 {
		abo.Assign(j, j%m)
		pinned++
	}
	run("abo", abo, pinned)
}

// TestFlatRunnerReuseMatchesFresh carries one Runner dirty across
// instances of varying shape, a stealing run and a fail-stop run
// between the plain ones: reuse must be invisible in the output, and a
// crash that strands a task must fail the reused run exactly as it
// fails a fresh one.
func TestFlatRunnerReuseMatchesFresh(t *testing.T) {
	var reused Runner
	for ci, in := range poolCases(t) {
		seed := uint64(ci) + 7
		cases := append([]flatCase{{"group", in, groupPlacement(t, in.N(), in.M, 2, seed), lptOrder(in)}},
			sharedCases(t, in, 2, seed)...) // lists and queues both shrink and grow between runs
		crashes := []Failure{{Machine: 0, Time: 1}, {Machine: in.M / 2, Time: 3}}
		for _, c := range cases {
			for _, opts := range []FlatOptions{{}, {FetchPenalty: 2}, {Failures: crashes}} {
				label := "reuse case " + itoa(ci) + " " + c.name
				got, gotErr := reused.RunSharded(in, c.p, c.order, opts)
				want, wantErr := RunFlatSharded(in, c.p, c.order, opts)
				if gotErr != nil || wantErr != nil {
					if !errors.Is(wantErr, ErrUnsurvivable) || gotErr == nil || gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s: reused run error %v, fresh run error %v", label, gotErr, wantErr)
					}
					continue
				}
				requireSameResult(t, label, got, want.Schedule, TraceOf(want.Schedule))
			}
		}
	}
}

// TestFlatValidation covers the flat engine's input rejection.
func TestFlatValidation(t *testing.T) {
	in := inst(t, 2, 1, 2, 3)
	p := placement.Everywhere(3, 2)
	check := func(wantSub string, pp *placement.Placement, order []int, opts FlatOptions, run *task.Instance) {
		t.Helper()
		if _, err := RunFlat(run, pp, order, opts); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("want error containing %q, got %v", wantSub, err)
		}
	}
	check("priority order has", p, []int{0, 1}, FlatOptions{}, in)
	check("not a permutation", p, []int{0, 1, 1}, FlatOptions{}, in)
	check("not a permutation", p, []int{0, 1, 5}, FlatOptions{}, in)
	check("does not match instance", placement.Everywhere(2, 2), identityOrder(3), FlatOptions{}, in)
	check("invalid machine", p, identityOrder(3),
		FlatOptions{Failures: []Failure{{Machine: 9, Time: 1}}}, in)
	check("negative time", p, identityOrder(3),
		FlatOptions{Failures: []Failure{{Machine: 0, Time: -1}}}, in)

	bad := inst(t, 2, 1, 2, 3)
	bad.Tasks[1].Actual = math.NaN() // task.New validates, so corrupt after
	check("actual time", p, identityOrder(3), FlatOptions{}, bad)
	neg := inst(t, 2, 1, 2, 3)
	neg.Tasks[2].Actual = -3
	check("negative actual", p, identityOrder(3), FlatOptions{}, neg)
}

func itoa(v int) string { return strconv.Itoa(v) }

// TestFlatSaturationIsAnError pins the tick-range edge of the batch
// engine: in-range durations whose completion time clamps at tick.Max
// — or whose fetch-penalized duration is itself past the range — fail
// with the overflow error on the linear path and in the general loop,
// its fail-stop mode included, at the same error sharded as in one
// global loop.
func TestFlatSaturationIsAnError(t *testing.T) {
	near := tick.Max.Seconds() * 0.75
	in := &task.Instance{M: 2, Alpha: 1, Tasks: []task.Task{
		{ID: 0, Estimate: near, Actual: near},
		{ID: 1, Estimate: near, Actual: near},
		{ID: 2, Estimate: near, Actual: near},
	}}
	single := placement.New(3, 2)
	for j := 0; j < 3; j++ {
		single.Assign(j, 0)
	}
	for _, c := range []struct {
		name string
		p    *placement.Placement
		opts FlatOptions
	}{
		{"linear", single, FlatOptions{}},
		{"heap", placement.Everywhere(3, 2), FlatOptions{}},
		{"failures", placement.Everywhere(3, 2), FlatOptions{Failures: []Failure{{Machine: 1, Time: 1}}}},
		{"stealing", single, FlatOptions{FetchPenalty: 2}}, // machine 1 takes task 1 at twice 0.75·Max
	} {
		_, want := RunFlat(in, c.p, identityOrder(3), c.opts)
		if !errors.Is(want, tick.ErrOverflow) {
			t.Errorf("%s: err = %v, want tick.ErrOverflow", c.name, want)
			continue
		}
		if _, err := RunFlatSharded(in, c.p, identityOrder(3), c.opts); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want %v", c.name, err, want)
		}
	}
}
