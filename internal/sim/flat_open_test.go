package sim

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/tick"
	"repro/internal/workload"
)

// runFlatOpen executes an open-system run on the flat engine
// sequentially (one global event loop, no shard decomposition) and
// returns caller-owned state: the reference the sharded runs are held
// to.
func runFlatOpen(in *task.Instance, p *placement.Placement, order []int,
	arrive []float64, opts OpenOptions) (*OpenResult, error) {
	var r Runner
	return r.RunOpen(in, p, order, arrive, opts)
}

// mustArrivals is workload.Arrivals but panics on error, for the
// tests' hard-coded specs.
func mustArrivals(n int, spec workload.ArrivalSpec) []float64 {
	times, err := workload.Arrivals(n, spec)
	if err != nil {
		panic(err)
	}
	return times
}

// openArrivalSpecs is the arrival-process axis of the open
// differential matrix: memoryless, bursty, and replayed-trace traffic.
func openArrivalSpecs(n, m int, seed uint64) []struct {
	name string
	arr  []float64
} {
	traceTimes := make([]float64, n)
	r := rng.New(seed ^ 0x7ace)
	t := 0.0
	for i := range traceTimes {
		t += r.Float64() * 0.8
		traceTimes[i] = t
	}
	rate := float64(m) / 4
	return []struct {
		name string
		arr  []float64
	}{
		{"poisson", mustArrivals(n, workload.ArrivalSpec{
			Process: "poisson", Rate: rate, Seed: seed})},
		{"mmpp", mustArrivals(n, workload.ArrivalSpec{
			Process: "mmpp", Rate: rate, Seed: seed + 1})},
		{"trace", mustArrivals(n, workload.ArrivalSpec{
			Process: "trace", Times: traceTimes})},
	}
}

func openPolicyOptions() []OpenOptions {
	return []OpenOptions{
		{Policy: CancelOnStart},
		{Policy: CancelOnCompletion, CancelCost: 0.25},
		// Zero cancellation cost makes cancelled losers wake at the very
		// tick the winner completed, the same-tick re-dispatch order the
		// race-collapse path takes by its one-cohort argument (flatopen.go)
		// and the other loops by event order.
		{Policy: CancelOnCompletion},
	}
}

func requireSameOpenResult(t *testing.T, label string, got, want *OpenResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Schedule.Assignments, want.Schedule.Assignments) {
		t.Fatalf("%s: schedule diverges", label)
	}
	if !reflect.DeepEqual(got.Responses, want.Responses) {
		t.Fatalf("%s: responses diverge", label)
	}
	if got.CancelledReplicas != want.CancelledReplicas {
		t.Fatalf("%s: cancelled %d, want %d", label, got.CancelledReplicas, want.CancelledReplicas)
	}
	if got.WastedTime != want.WastedTime {
		t.Fatalf("%s: wasted %v, want %v", label, got.WastedTime, want.WastedTime)
	}
	if got.End != want.End {
		t.Fatalf("%s: end %v, want %v", label, got.End, want.End)
	}
}

// TestFlatOpenShardedMatchesRun is the open-mode shard differential:
// RunOpenSharded is byte-identical —
// response by response, assignment by assignment, waste to the last
// bit — to the sequential flat open Run, across the placement ×
// arrival-process × cancel-policy matrix.
func TestFlatOpenShardedMatchesRun(t *testing.T) {
	for _, c := range flatCases(t) {
		n, m := c.in.N(), c.in.M
		for _, arr := range openArrivalSpecs(n, m, 40) {
			for _, opts := range openPolicyOptions() {
				label := c.name + "/" + arr.name + "/" + opts.Policy.String()
				want, err := runFlatOpen(c.in, c.p, c.order, arr.arr, opts)
				if err != nil {
					t.Fatalf("%s: Run: %v", label, err)
				}
				got, err := RunFlatOpenSharded(c.in, c.p, c.order, arr.arr, opts)
				if err != nil {
					t.Fatalf("%s: RunSharded: %v", label, err)
				}
				requireSameOpenResult(t, label, got, want)
			}
		}
	}
}

// openExactInstance builds whole-second estimates and actuals, exact
// in both float64 and ticks, so the flat engines and the float-time
// oracle make identical decisions and report identical times.
func openExactInstance(t *testing.T, n, m int, seed uint64) *task.Instance {
	t.Helper()
	est := make([]float64, n)
	act := make([]float64, n)
	r := rng.New(seed)
	for j := range act {
		act[j] = float64(1 + r.Intn(9))
		est[j] = float64(1 + r.Intn(9))
	}
	in, err := task.New(m, 9, est, act)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// openExactArrivals draws non-decreasing whole-second arrivals.
func openExactArrivals(n int, seed uint64) []float64 {
	r := rng.New(seed)
	arr := make([]float64, n)
	t := 0.0
	for i := range arr {
		t += float64(r.Intn(3))
		arr[i] = t
	}
	return arr
}

// TestFlatOpenMatchesEventEngineExact pins the flat open engine to the
// oracle byte-for-byte on integer durations, arrivals and cancel cost,
// where tick quantization is exact — same replica wins, same
// responses, same waste — across both policies, all placement
// families, sharded. This is the open-mode cross-engine
// golden equivalence.
func TestFlatOpenMatchesEventEngineExact(t *testing.T) {
	shapes := []struct {
		n, m, k int
		seed    uint64
	}{{40, 8, 2, 51}, {55, 10, 5, 52}, {24, 6, 3, 53}}
	for _, s := range shapes {
		in := openExactInstance(t, s.n, s.m, s.seed)
		order := lptOrder(in)
		arrive := openExactArrivals(s.n, s.seed+9)
		placements := []struct {
			name string
			p    *placement.Placement
		}{
			{"none", nonePlacement(s.n, s.m, s.seed)},
			{"group", groupPlacement(t, s.n, s.m, s.k, s.seed)},
			{"all", placement.Everywhere(s.n, s.m)},
			{"mixed", mixedPlacement(s.n, s.m, s.seed)},
		}
		for _, pc := range placements {
			for _, opts := range []OpenOptions{
				{Policy: CancelOnStart},
				{Policy: CancelOnCompletion, CancelCost: 1},
				{Policy: CancelOnCompletion, CancelCost: 0},
			} {
				label := pc.name + "/" + opts.Policy.String()
				want := oracleRunOpen(in, pc.p, order, arrive, opts)
				got, err := RunFlatOpenSharded(in, pc.p, order, arrive, opts)
				if err != nil {
					t.Fatalf("%s: flat engine: %v", label, err)
				}
				requireSameOpenResult(t, label, got, want)
			}
		}
	}
}

// TestFlatOpenMatchesEventEngineEpsilon compares engine and oracle on
// continuous durations and arrivals, where ticks quantize: decisions
// (winning machine, cancellation count) must still agree and every
// reported time must sit within the accumulated quantization bound.
func TestFlatOpenMatchesEventEngineEpsilon(t *testing.T) {
	for _, c := range flatCases(t) {
		n, m := c.in.N(), c.in.M
		for _, arr := range openArrivalSpecs(n, m, 77) {
			for _, opts := range openPolicyOptions() {
				label := c.name + "/" + arr.name + "/" + opts.Policy.String()
				want := oracleRunOpen(c.in, c.p, c.order, arr.arr, opts)
				got, err := runFlatOpen(c.in, c.p, c.order, arr.arr, opts)
				if err != nil {
					t.Fatalf("%s: flat engine: %v", label, err)
				}
				// ≤ 0.5e-9 quantization per summed duration in a machine's
				// chain of at most n tasks, plus float slack for the
				// reference's own sums; in ticks, n+1.
				eps := 1e-9 * float64(n+1)
				if got.CancelledReplicas != want.CancelledReplicas {
					t.Fatalf("%s: cancelled %d, event engine %d",
						label, got.CancelledReplicas, want.CancelledReplicas)
				}
				if math.Abs(got.WastedTime-want.WastedTime) > eps*float64(want.CancelledReplicas+1) {
					t.Fatalf("%s: wasted %v, event engine %v", label, got.WastedTime, want.WastedTime)
				}
				if math.Abs(got.End-want.End) > eps {
					t.Fatalf("%s: end %v, event engine %v", label, got.End, want.End)
				}
				for j, ga := range got.Schedule.Assignments {
					wa := want.Schedule.Assignments[j]
					if ga.Machine != wa.Machine {
						t.Fatalf("%s: task %d won on machine %d, event engine chose %d",
							label, j, ga.Machine, wa.Machine)
					}
					if drift(ga.Start, wa.Start) > n+1 || drift(ga.End, wa.End) > n+1 {
						t.Fatalf("%s: task %d ticks (%d,%d) drift from (%d,%d) beyond %d",
							label, j, ga.Start, ga.End, wa.Start, wa.End, n+1)
					}
					if math.Abs(got.Responses[j]-want.Responses[j]) > eps {
						t.Fatalf("%s: task %d response %v drifts from %v",
							label, j, got.Responses[j], want.Responses[j])
					}
				}
			}
		}
	}
}

// TestFlatOpenMatchesBatch extends the open mode's metamorphic anchor
// to the flat engine: with every arrival at t=0 and CancelOnStart, the
// flat open simulator reproduces the batch flat simulator's schedule
// byte-for-byte.
func TestFlatOpenMatchesBatch(t *testing.T) {
	for _, c := range flatCases(t) {
		batch, err := RunFlat(c.in, c.p, c.order, FlatOptions{})
		if err != nil {
			t.Fatalf("%s: batch: %v", c.name, err)
		}
		arrive := make([]float64, c.in.N())
		open, err := RunFlatOpenSharded(c.in, c.p, c.order, arrive,
			OpenOptions{Policy: CancelOnStart})
		if err != nil {
			t.Fatalf("%s: open: %v", c.name, err)
		}
		if !reflect.DeepEqual(open.Schedule.Assignments, batch.Schedule.Assignments) {
			t.Fatalf("%s: open schedule diverged from batch", c.name)
		}
		if open.CancelledReplicas != 0 || open.WastedTime != 0 {
			t.Fatalf("%s: cancel-on-start wasted work: %d replicas, %v time",
				c.name, open.CancelledReplicas, open.WastedTime)
		}
		for j, a := range batch.Schedule.Assignments {
			if open.Responses[j] != a.End.Seconds() {
				t.Fatalf("%s: task %d response %v != completion %v",
					c.name, j, open.Responses[j], a.End)
			}
		}
	}
}

// TestFlatOpenCancelledMachineResumes pins the cancellation semantics
// on the hand-worked scenario of TestOpenCancelledMachineResumes
// through the unsharded entry point, adding the waste accounting.
func TestFlatOpenCancelledMachineResumes(t *testing.T) {
	in := &task.Instance{M: 2, Alpha: 1, Tasks: []task.Task{
		{ID: 0, Estimate: 8, Actual: 8},
		{ID: 1, Estimate: 4, Actual: 4},
	}}
	p := placement.New(2, 2)
	p.Sets[0] = []int{0, 1}
	p.Sets[1] = []int{0}
	dur := func(taskID, machine int) float64 {
		if taskID == 0 && machine == 1 {
			return 2
		}
		return in.Tasks[taskID].Actual
	}
	res, err := runFlatOpen(in, p, []int{0, 1}, []float64{0, 1}, OpenOptions{
		Policy: CancelOnCompletion, CancelCost: 1, Duration: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{2, 6}; !reflect.DeepEqual(res.Responses, want) {
		t.Fatalf("responses = %v, want %v", res.Responses, want)
	}
	if res.CancelledReplicas != 1 || res.WastedTime != 3 {
		t.Fatalf("waste = %d replicas / %v time, want 1 / 3", res.CancelledReplicas, res.WastedTime)
	}
	a := res.Schedule.Assignments[1]
	if a.Machine != 0 || a.Start.Seconds() != 3 || a.End.Seconds() != 7 {
		t.Fatalf("task 1 assignment = %+v, want machine 0, 3→7", a)
	}
}

// TestFlatOpenReuseMatchesFresh carries one Runner dirty
// across instances of varying shape: reuse must be invisible in the
// output.
func TestFlatOpenReuseMatchesFresh(t *testing.T) {
	var reused Runner
	for ci, in := range poolCases(t) {
		p := groupPlacement(t, in.N(), in.M, 2, uint64(ci)+7)
		order := lptOrder(in)
		arrive := mustArrivals(in.N(), workload.ArrivalSpec{
			Process: "poisson", Rate: float64(in.M) / 3, Seed: 600 + uint64(ci),
		})
		opts := OpenOptions{Policy: CancelOnCompletion, CancelCost: 0.25}
		if ci%2 == 0 {
			opts = OpenOptions{Policy: CancelOnStart}
		}
		got, err := reused.RunOpenSharded(in, p, order, arrive, opts)
		if err != nil {
			t.Fatalf("case %d: reused: %v", ci, err)
		}
		want, err := RunFlatOpenSharded(in, p, order, arrive, opts)
		if err != nil {
			t.Fatalf("case %d: fresh: %v", ci, err)
		}
		requireSameOpenResult(t, "reuse case "+itoa(ci), got, want)
	}
}

// TestFlatOpenZeroSteadyStateAllocs asserts the replay loop's pooling
// contract directly: after a warm-up run, repeat runs of the same
// shape allocate nothing. This is the same claim the root package's
// TestKernelAllocations gates at n=10k (OpenSimLoop/*), on the closures
// the benchmarks time; here it gates a small shape inside the package.
func TestFlatOpenZeroSteadyStateAllocs(t *testing.T) {
	in := openExactInstance(t, 64, 8, 91)
	p := placement.Everywhere(64, 8)
	order := lptOrder(in)
	arrive := openExactArrivals(64, 92)
	opts := OpenOptions{Policy: CancelOnCompletion, CancelCost: 1}
	var r Runner
	if _, err := r.RunOpenSharded(in, p, order, arrive, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.RunOpenSharded(in, p, order, arrive, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}

// TestFlatOpenValidation covers the half of the open engine's input
// rejection that fixed-point time and the shard decomposition add —
// tick-representable arrivals, durations and hook values, replica sets
// inside the machine range; TestOpenRunValidation has the rest.
func TestFlatOpenValidation(t *testing.T) {
	in := openExactInstance(t, 4, 2, 95)
	p := placement.Everywhere(4, 2)
	order := identityOrder(4)
	arrive := make([]float64, 4)
	check := func(name, frag string, run func() error) {
		t.Helper()
		err := run()
		if err == nil {
			t.Errorf("%s: expected error", name)
			return
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("%s: error %q does not contain %q", name, err, frag)
		}
	}
	check("arrive overflow", "arrival", func() error {
		_, err := runFlatOpen(in, p, order, []float64{0, 1, 2, 1e18}, OpenOptions{})
		return err
	})
	check("invalid replica set", "machine", func() error {
		bad := placement.New(4, 2)
		for j := 0; j < 4; j++ {
			bad.Sets[j] = []int{0}
		}
		bad.Sets[2] = []int{5}
		_, err := runFlatOpen(in, bad, order, arrive, OpenOptions{})
		return err
	})
	check("NaN actual", "actual time", func() error {
		bad := openExactInstance(t, 4, 2, 95)
		bad.Tasks[1].Actual = math.NaN()
		_, err := runFlatOpen(bad, p, order, arrive, OpenOptions{})
		return err
	})
	check("negative actual", "negative actual", func() error {
		bad := openExactInstance(t, 4, 2, 95)
		bad.Tasks[2].Actual = -3
		_, err := runFlatOpen(bad, p, order, arrive, OpenOptions{})
		return err
	})
	check("hook NaN", "duration hook", func() error {
		_, err := runFlatOpen(in, p, order, arrive,
			OpenOptions{Duration: func(int, int) float64 { return math.NaN() }})
		return err
	})
	check("hook negative", "negative", func() error {
		_, err := runFlatOpen(in, p, order, arrive,
			OpenOptions{Duration: func(int, int) float64 { return -1 }})
		return err
	})
}

// TestFlatOpenHookErrorDeterministicAcrossWorkers checks that a
// Duration-hook failure surfaces as the same error sharded as in one
// global loop (the min-(time,machine) merge rule).
func TestFlatOpenHookErrorDeterministicAcrossWorkers(t *testing.T) {
	in := openExactInstance(t, 30, 6, 97)
	p := groupPlacement(t, 30, 6, 2, 97)
	order := lptOrder(in)
	arrive := openExactArrivals(30, 98)
	dur := func(j, i int) float64 {
		if j%7 == 3 {
			return math.Inf(1)
		}
		return in.Tasks[j].Actual
	}
	opts := OpenOptions{Policy: CancelOnCompletion, CancelCost: 0.5, Duration: dur}
	_, wantErr := runFlatOpen(in, p, order, arrive, opts)
	if wantErr == nil {
		t.Fatal("expected a duration-hook error")
	}
	_, err := RunFlatOpenSharded(in, p, order, arrive, opts)
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("err %v, want %v", err, wantErr)
	}
}

// TestSatAddScaled pins the race-collapse waste batching against its
// specification: cnt repeated tick.SatAdds of each, including the
// clamp-at-Max-and-stay saturation behaviour the differential suite's
// whole-second inputs never reach.
func TestSatAddScaled(t *testing.T) {
	cases := []struct {
		acc, each tick.Tick
		cnt       int32
	}{
		{0, 5, 3},
		{17, 0, 4},
		{17, 9, 0},
		{tick.Max - 10, 7, 2},
		{tick.Max - 10, 5, 2}, // lands exactly on Max
		{tick.Max, 1, 1},
		{tick.Max / 2, tick.Max / 2, 3},
		{3, tick.Max, 1},
	}
	for _, c := range cases {
		want := c.acc
		for k := int32(0); k < c.cnt; k++ {
			want = tick.SatAdd(want, c.each)
		}
		if got := satAddScaled(c.acc, c.each, c.cnt); got != want {
			t.Errorf("satAddScaled(%d, %d, %d) = %d, want %d", c.acc, c.each, c.cnt, got, want)
		}
	}
}

// TestFlatOpenWideRaceMatchesGeneralAndOracle is the differential for
// race collapse past one mask word: on uniform CancelOnCompletion
// shards of 65, 127, 128 and 192 machines the race path, the general
// loop and the oracle must be byte-identical — across cancel costs, zero included,
// arrival shapes (a t=0 burst, a steady stream, a sparse one that lets
// the whole shard go dormant between tasks). Inputs
// are whole seconds, exact in float64 and in ticks. The general loop
// is reached through an identity Duration hook, which disqualifies
// race collapse without changing any duration; the shards-by-path
// counter confirms which path each run took.
func TestFlatOpenWideRaceMatchesGeneralAndOracle(t *testing.T) {
	raceShards := obs.GetCounter("sim.shards_race_collapse")
	for _, m := range []int{65, 127, 128, 192} {
		n := 3 * m
		in := openExactInstance(t, n, m, uint64(m))
		order := lptOrder(in)
		identity := func(j, _ int) float64 { return in.Tasks[j].Actual }
		placements := []struct {
			name   string
			p      *placement.Placement
			shards int64
		}{
			{"all", placement.Everywhere(n, m), 1},
		}
		if m == 192 {
			// Two uniform shards of 96 machines: two-word masks with a
			// half-empty top word, and real shard parallelism.
			placements = append(placements, struct {
				name   string
				p      *placement.Placement
				shards int64
			}{"group96", groupPlacement(t, n, m, 2, 7), 2})
		}
		for _, gap := range []int{1, 3, 40} {
			r := rng.New(uint64(m + gap))
			arrive := make([]float64, n)
			at := 0.0
			for i := range arrive {
				at += float64(r.Intn(gap))
				arrive[i] = at
			}
			for _, pc := range placements {
				for _, cost := range []float64{0, 1, 7} {
					label := "m=" + itoa(m) + "/" + pc.name + "/gap<" + itoa(gap) + "/cost=" + itoa(int(cost))
					opts := OpenOptions{Policy: CancelOnCompletion, CancelCost: cost}
					want := oracleRunOpen(in, pc.p, order, arrive, opts)
					hooked := opts
					hooked.Duration = identity
					before := raceShards.Load()
					uniform, err := RunFlatOpenSharded(in, pc.p, order, arrive, hooked)
					if err != nil {
						t.Fatalf("%s: general loop: %v", label, err)
					}
					if d := raceShards.Load() - before; d != 0 {
						t.Fatalf("%s: hooked run took the race path on %d shards", label, d)
					}
					requireSameOpenResult(t, label+"/uniform", uniform, want)
					before = raceShards.Load()
					got, err := RunFlatOpenSharded(in, pc.p, order, arrive, opts)
					if err != nil {
						t.Fatalf("%s: race path: %v", label, err)
					}
					if d := raceShards.Load() - before; d != pc.shards {
						t.Fatalf("%s: %d shards on the race path, want %d", label, d, pc.shards)
					}
					requireSameOpenResult(t, label, got, want)
				}
			}
		}
	}
}

// TestFlatOpenSaturationIsAnError pins the tick-range edge of the open
// engine: in-range inputs whose completion or cancel wake-up clamps at
// tick.Max fail with the overflow error on every replay path instead
// of reporting a schedule that ends at the limit — or, since tick.Max
// is a dormant machine's event time, retiring a machine that still
// holds work.
func TestFlatOpenSaturationIsAnError(t *testing.T) {
	near := tick.Max.Seconds() * 0.75
	in := &task.Instance{M: 2, Alpha: 1, Tasks: []task.Task{
		{ID: 0, Estimate: near, Actual: near},
		{ID: 1, Estimate: near, Actual: near},
		{ID: 2, Estimate: near, Actual: near},
	}}
	mixed := placement.New(3, 2)
	mixed.Sets[0], mixed.Sets[1], mixed.Sets[2] = []int{0, 1}, []int{0}, []int{0, 1}
	identity := func(j, _ int) float64 { return in.Tasks[j].Actual }
	coc := OpenOptions{Policy: CancelOnCompletion}
	hooked := OpenOptions{Policy: CancelOnCompletion, Duration: identity}
	// A cancel cost that runs the losers' wake-up past the range while
	// every completion stays in it.
	wake := OpenOptions{Policy: CancelOnCompletion, CancelCost: near}
	hookedWake := OpenOptions{Policy: CancelOnCompletion, CancelCost: near, Duration: identity}
	for _, c := range []struct {
		name string
		p    *placement.Placement
		opts OpenOptions
	}{
		{"uniform", placement.Everywhere(3, 2), OpenOptions{Policy: CancelOnStart}},
		{"race", placement.Everywhere(3, 2), OpenOptions{Policy: CancelOnCompletion, CancelCost: 1}},
		{"race/cost=0", placement.Everywhere(3, 2), coc},
		{"uniform/cancel-on-completion", placement.Everywhere(3, 2), hooked},
		{"general", mixed, OpenOptions{Policy: CancelOnStart}},
		{"general/cancel-on-completion", mixed, coc},
		{"race/wake-up", placement.Everywhere(3, 2), wake},
		{"uniform/wake-up", placement.Everywhere(3, 2), hookedWake},
		{"general/wake-up", mixed, wake},
	} {
		_, err := RunFlatOpenSharded(in, c.p, identityOrder(3), make([]float64, 3), c.opts)
		if !errors.Is(err, tick.ErrOverflow) {
			t.Errorf("%s: err = %v, want tick.ErrOverflow", c.name, err)
		}
	}
}

// TestFlatEnginesExportRunCounters checks the engines' obs output: the
// run counters (events popped, cancelled replicas) move, the stale
// entries counter cmd/bench reads stays at zero, and every shard is
// attributed to exactly one replay path.
func TestFlatEnginesExportRunCounters(t *testing.T) {
	names := []string{
		"sim.events_popped", "sim.open_events_popped", "sim.open_stale_skipped", "sim.open_cancelled_replicas",
		"sim.shards_linear", "sim.shards_uniform", "sim.shards_race_collapse", "sim.shards_general",
	}
	delta := func(run func()) map[string]int64 {
		before := make([]int64, len(names))
		for i, name := range names {
			before[i] = obs.GetCounter(name).Load()
		}
		run()
		d := map[string]int64{}
		for i, name := range names {
			d[name] = obs.GetCounter(name).Load() - before[i]
		}
		return d
	}
	in := openExactInstance(t, 60, 6, 31)
	order := lptOrder(in)
	arrive := openExactArrivals(60, 32)

	// Batch: four singleton shards replay linearly (no events), the
	// two-machine shard pops one event per task plus one per retiring
	// machine.
	mixed := placement.New(60, 6)
	pairTasks := 0
	for j := 0; j < 60; j++ {
		if j%3 == 0 {
			mixed.Sets[j] = []int{4, 5}
			pairTasks++
		} else {
			mixed.Assign(j, j%4)
		}
	}
	d := delta(func() {
		if _, err := RunFlatSharded(in, mixed, order, FlatOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if d["sim.shards_linear"] != 4 || d["sim.shards_general"] != 1 || d["sim.events_popped"] != int64(pairTasks+2) {
		t.Errorf("batch run: %v", d)
	}

	// Batch, machine 5 crashing in the middle of a task: the pair shard
	// leaves the linear path's reach and the singletons keep it. The pair
	// pops one event per start, the lost task's retry included, one for
	// machine 4 finding nothing left, and one for machine 5's pending
	// completion, popped on a dead machine.
	d = delta(func() {
		if _, err := RunFlatSharded(in, mixed, order, FlatOptions{Failures: []Failure{{Machine: 5, Time: 20.5}}}); err != nil {
			t.Fatal(err)
		}
	})
	if d["sim.shards_linear"] != 4 || d["sim.shards_general"] != 1 || d["sim.events_popped"] != int64(pairTasks+3) {
		t.Errorf("fail-stop run: %v", d)
	}

	// Batch, a crash at t=4 losing the one task pinned to machine 1: the
	// run fails, and the four events popped before it (both machines at
	// zero and at t=3) still count.
	strand := placement.Everywhere(4, 2)
	strand.Sets[3] = []int{1}
	d = delta(func() {
		_, err := RunFlatSharded(inst(t, 2, 3, 3, 3, 3), strand, identityOrder(4),
			FlatOptions{Failures: []Failure{{Machine: 1, Time: 4}}})
		if !errors.Is(err, ErrUnsurvivable) {
			t.Fatalf("stranding crash: err = %v, want ErrUnsurvivable", err)
		}
	})
	if d["sim.shards_general"] != 1 || d["sim.events_popped"] != 4 {
		t.Errorf("stranding fail-stop run: %v", d)
	}

	// Open, off the race path through an identity Duration hook, every
	// arrival at zero: the general loop, counted as its all-wide case.
	// Each machine's event is popped once per thing it stands for — the
	// first arrival's wake-up of all six machines, one completion per
	// task, one wake-up per cancelled replica — and a cancellation moves
	// the loser's pending completion instead of leaving an entry behind,
	// so nothing is stale.
	var res *OpenResult
	everywhere := placement.Everywhere(60, 6)
	identity := func(j, _ int) float64 { return in.Tasks[j].Actual }
	d = delta(func() {
		var err error
		res, err = RunFlatOpenSharded(in, everywhere, order, make([]float64, 60),
			OpenOptions{Policy: CancelOnCompletion, Duration: identity})
		if err != nil {
			t.Fatal(err)
		}
	})
	if d["sim.shards_uniform"] != 1 || d["sim.shards_general"] != 0 || res.CancelledReplicas == 0 ||
		d["sim.open_cancelled_replicas"] != int64(res.CancelledReplicas) ||
		d["sim.open_stale_skipped"] != 0 ||
		d["sim.open_events_popped"] != int64(6+60+res.CancelledReplicas) {
		t.Errorf("uniform-loop run (cancelled %d): %v", res.CancelledReplicas, d)
	}

	// Open, one task pinned beside the replicated rest: a mixed shard,
	// which the general loop replays with or without a hook and race
	// collapse never takes.
	pinned := placement.Everywhere(60, 6)
	pinned.Sets[0] = []int{2}
	d = delta(func() {
		if _, err := RunFlatOpenSharded(in, pinned, order, arrive,
			OpenOptions{Policy: CancelOnCompletion, CancelCost: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if d["sim.shards_general"] != 1 || d["sim.shards_uniform"] != 0 || d["sim.shards_race_collapse"] != 0 ||
		d["sim.open_stale_skipped"] != 0 {
		t.Errorf("mixed-shard run: %v", d)
	}

	// Open, race collapse, at zero cost and a positive one: one event per
	// task, nothing stale.
	for _, cost := range []float64{0, 1} {
		d = delta(func() {
			var err error
			res, err = RunFlatOpenSharded(in, everywhere, order, arrive,
				OpenOptions{Policy: CancelOnCompletion, CancelCost: cost})
			if err != nil {
				t.Fatal(err)
			}
		})
		if d["sim.shards_race_collapse"] != 1 || d["sim.open_events_popped"] != 60 ||
			d["sim.open_stale_skipped"] != 0 || d["sim.open_cancelled_replicas"] != int64(res.CancelledReplicas) {
			t.Errorf("race-collapse run at cost %v (cancelled %d): %v", cost, res.CancelledReplicas, d)
		}
	}
}
