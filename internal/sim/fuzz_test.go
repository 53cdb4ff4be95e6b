package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bounds"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
)

// partitionShards exposes the shard decomposition to the property
// tests: machineShard[i] and taskShard[j] are shard IDs, and
// nShards is the shard count. IDs are dense, assigned in order of each
// shard's lowest machine index. Every machine and every task belongs
// to exactly one shard, and a task's shard contains its whole replica
// set — the exact-cover property FuzzGroupPartition pins.
func partitionShards(p *placement.Placement) (machineShard, taskShard []int, nShards int, err error) {
	if err := placement.CheckSets(p.Sets, p.M); err != nil {
		return nil, nil, 0, err
	}
	var ss shardSet
	ss.partition(p)
	machineShard = make([]int, p.M)
	for i, s := range ss.shardOf {
		machineShard[i] = int(s)
	}
	taskShard = make([]int, p.N())
	for j, set := range p.Sets {
		taskShard[j] = int(ss.shardOf[set[0]])
	}
	return machineShard, taskShard, ss.nShards, nil
}

// replicaSet returns machines as a replica set: a sorted copy without
// duplicates.
func replicaSet(machines []int) []int {
	set := slices.Clone(machines)
	slices.Sort(set)
	return slices.Compact(set)
}

// fuzzPlacement derives a placement from fuzz bytes: each task's
// replica set is a pseudo-random nonempty machine subset, so the
// partitioner sees arbitrary overlap structure — singletons, chains
// that merge many groups, full-span sets — not just the tidy group:k
// shapes the named strategies emit.
func fuzzPlacement(n, m int, seed uint64) *placement.Placement {
	r := rng.New(seed)
	p := placement.New(n, m)
	set := make([]int, 0, m)
	for j := 0; j < n; j++ {
		size := 1 + r.Intn(m)
		set = set[:0]
		for len(set) < size {
			set = append(set, r.Intn(m))
		}
		p.Sets[j] = replicaSet(set)
	}
	return p
}

// FuzzGroupPartition fuzzes the shard decomposition invariants:
//
//   - exact cover: every machine and every task has exactly one shard
//     ID, dense in [0, nShards);
//   - closure: a task's whole replica set lives in the task's shard;
//   - connectivity soundness: machines sharing any replica set share a
//     shard, and shard IDs follow first-machine order;
//   - and the reassembly property — the sharded run's merged schedule
//     and trace are byte-identical to the sequential flat run, i.e. the
//     merge is a pure reassembly of per-shard results, permuting
//     nothing.
func FuzzGroupPartition(f *testing.F) {
	f.Add(uint8(12), uint8(4), uint64(1))
	f.Add(uint8(40), uint8(8), uint64(2))
	f.Add(uint8(1), uint8(1), uint64(3))
	f.Add(uint8(30), uint8(12), uint64(0xfeed))
	f.Add(uint8(7), uint8(9), uint64(42)) // more machines than tasks: idle shards
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint8, seed uint64) {
		n := 1 + int(nRaw)%48
		m := 1 + int(mRaw)%12
		p := fuzzPlacement(n, m, seed)

		machineShard, taskShard, nShards, err := partitionShards(p)
		if err != nil {
			t.Fatalf("partitionShards: %v", err)
		}
		if nShards < 1 || nShards > m {
			t.Fatalf("nShards = %d with %d machines", nShards, m)
		}
		seen := make([]bool, nShards)
		first := -1
		for i, s := range machineShard {
			if s < 0 || s >= nShards {
				t.Fatalf("machine %d shard %d out of range [0,%d)", i, s, nShards)
			}
			if !seen[s] {
				// First appearance of a shard ID must be in increasing ID
				// order (deterministic first-machine labeling).
				if s != first+1 {
					t.Fatalf("shard IDs not in first-appearance order: saw %d after %d", s, first)
				}
				first = s
				seen[s] = true
			}
		}
		for s, ok := range seen {
			if !ok {
				t.Fatalf("shard %d has no machines: IDs not dense", s)
			}
		}
		for j, s := range taskShard {
			if s < 0 || s >= nShards {
				t.Fatalf("task %d shard %d out of range [0,%d)", j, s, nShards)
			}
			for _, i := range p.Sets[j] {
				if machineShard[i] != s {
					t.Fatalf("task %d in shard %d but replica machine %d in shard %d",
						j, s, i, machineShard[i])
				}
			}
		}

		// Reassembly: sharded == sequential, byte for byte, trace
		// included. durations derived from the same bytes.
		r := rng.New(seed ^ 0xd1ff)
		est := make([]float64, n)
		act := make([]float64, n)
		for j := range act {
			act[j] = r.Uniform(0.1, 10)
			est[j] = act[j]
		}
		in, err := task.New(m, 1, est, act)
		if err != nil {
			t.Fatalf("task.New: %v", err)
		}
		order := lptOrder(in)
		want, err := RunFlat(in, p, order, FlatOptions{})
		if err != nil {
			t.Fatalf("RunFlat: %v", err)
		}
		got, err := RunFlatSharded(in, p, order, FlatOptions{})
		if err != nil {
			t.Fatalf("RunFlatSharded: %v", err)
		}
		if !reflect.DeepEqual(got.Schedule.Assignments, want.Schedule.Assignments) {
			t.Fatalf("merged schedule not a reassembly of the sequential run")
		}
		if !reflect.DeepEqual(TraceOf(got.Schedule), TraceOf(want.Schedule)) {
			t.Fatalf("merged trace diverges")
		}
	})
}

// openFuzzMachines is the machine-count axis of the open fuzz's batch
// corner: seven, and counts on both sides of the 64- and 128-machine
// word boundaries of the race path's cohort masks.
var openFuzzMachines = [...]int{7, 65, 127, 128, 192}

// FuzzOpenWheel fuzzes the open engine against its two oracles: the
// paper's bound on the closed-batch corner (checkOpenBatchCorner) and
// oracleRunOpen on tie-heavy racing (checkOpenTies). Its seed corpus is
// filed under this name from when it fuzzed the tick wheel the engine's
// event tree replaced; the two-byte shape argument picks the corner's
// machine count (byte/24) and α (1 + byte%24/8).
func FuzzOpenWheel(f *testing.F) {
	f.Add(uint16(64), uint8(0), uint64(1))
	f.Add(uint16(300), uint8(10), uint64(2))
	f.Add(uint16(200), uint8(20), uint64(0xfeed))
	f.Add(uint16(500), uint8(4), uint64(42))
	f.Add(uint16(31), uint8(62), uint64(7))
	f.Add(uint16(400), uint8(24+10), uint64(65))
	f.Add(uint16(600), uint8(72+0), uint64(128))
	f.Add(uint16(500), uint8(96+20), uint64(192))
	f.Fuzz(func(t *testing.T, nRaw uint16, shape uint8, seed uint64) {
		n := 1 + int(nRaw)%600
		m := openFuzzMachines[int(shape/24)%len(openFuzzMachines)]
		checkOpenBatchCorner(t, n, m, 1+float64(shape%24)/8, seed)
		checkOpenTies(t, 1+int(nRaw)%160, seed)
	})
}

// checkOpenBatchCorner replays the open engine's closed-batch corner —
// every arrival at zero, cancel-on-start, no straggler hook — over a
// fully replicated placement in LPT order. That is LPT-No Restriction,
// so the schedule of winning replicas (here the only replicas that ran)
// must respect its guarantee against LPT's upper bound on C*.
func checkOpenBatchCorner(t *testing.T, n, m int, alpha float64, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	est := make([]float64, n)
	act := make([]float64, n)
	for j := range est {
		est[j] = r.Uniform(1, 10)
		act[j] = est[j] * r.BoundedFactor(alpha)
	}
	in, err := task.New(m, alpha, est, act)
	if err != nil {
		t.Fatal(err)
	}
	open, err := runFlatOpen(in, placement.Everywhere(n, m), lptOrder(in), make([]float64, n),
		OpenOptions{Policy: CancelOnStart})
	if err != nil {
		t.Fatal(err)
	}
	upper, _ := opt.LPT(act, m)
	if mk, rho := open.Schedule.Makespan(), bounds.LPTNoRestriction(m, alpha); !bounds.Holds(mk, rho, upper) {
		t.Fatalf("n=%d m=%d α=%g seed=%d: makespan %v breaks LPT-No Restriction's %v against C* ≤ %v",
			n, m, alpha, seed, mk, rho, upper)
	}
}

// checkOpenTies is the tie-heavy racing differential. Whole-second
// durations from 1 to 4 and arrival gaps from 0 to 2 make equal-tick
// events the rule rather than the exception: completions, cancel
// wake-ups and arrivals at one tick, at zero cancel cost too. Over up to
// 139 machines (three mask words) in a random priority order, the
// placement is one of three: every task everywhere, every task on one of
// two balanced groups, or a mixed shard — pinned, wide and 2–3-machine
// sets side by side, under both policies. Three runs must equal
// oracleRunOpen byte for byte, sharded: the engine as is (race
// collapse on a uniform shard under cancel-on-completion, else the
// general loop), the same inputs under an identity Duration hook, which
// changes no duration but keeps every shard off race collapse, and the
// sequential Run (one shard). The shards-by-path counters confirm each
// route.
func checkOpenTies(t *testing.T, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed ^ 0x71e5)
	m := 1 + r.Intn(139)
	est := make([]float64, n)
	act := make([]float64, n)
	arrive := make([]float64, n)
	at := 0.0
	for j := range act {
		est[j] = float64(1 + r.Intn(4))
		act[j] = float64(1 + r.Intn(4))
		at += float64(r.Intn(3))
		arrive[j] = at
	}
	in, err := task.New(m, 4, est, act)
	if err != nil {
		t.Fatal(err)
	}
	order := r.Perm(n)
	p := placement.Everywhere(n, m)
	policies := []CancelPolicy{CancelOnCompletion}
	switch kind := r.Intn(3); {
	case m > 1 && kind == 1:
		groups, err := placement.PartitionGroupsBalanced(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		p = placement.New(n, m)
		for j := 0; j < n; j++ {
			p.Sets[j] = groups[r.Intn(2)]
		}
	case m > 1 && kind == 2:
		p = mixedShard(r, n, m)
		policies = append(policies, CancelOnStart)
	}
	// Race collapse takes the uniform shards, and only those, of a
	// cancel-on-completion run without a hook.
	machineShard, taskShard, nShards, err := partitionShards(p)
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([]bool, nShards)
	for s := range uniform {
		uniform[s] = true
	}
	for j, s := range taskShard {
		size := 0
		for _, ms := range machineShard {
			if ms == s {
				size++
			}
		}
		uniform[s] = uniform[s] && len(p.Sets[j]) == size
	}
	raceable := int64(0)
	for _, u := range uniform {
		if u {
			raceable++
		}
	}
	raceShards := obs.GetCounter("sim.shards_race_collapse")
	for _, policy := range policies {
		opts := OpenOptions{Policy: policy, CancelCost: float64(r.Intn(3))}
		hooked := opts
		hooked.Duration = func(j, _ int) float64 { return in.Tasks[j].Actual }
		label := fmt.Sprintf("n=%d m=%d shards=%d %v cost=%v seed=%d", n, m, nShards, policy, opts.CancelCost, seed)
		want := oracleRunOpen(in, p, order, arrive, opts)
		seq, err := runFlatOpen(in, p, order, arrive, opts)
		if err != nil {
			t.Fatalf("%s: sequential: %v", label, err)
		}
		requireSameOpenResult(t, label+"/sequential", seq, want)
		race := int64(0)
		if policy == CancelOnCompletion {
			race = raceable
		}
		for _, run := range []struct {
			name string
			opts OpenOptions
			race int64
		}{{"engine", opts, race}, {"hooked", hooked, 0}} {
			before := raceShards.Load()
			got, err := RunFlatOpenSharded(in, p, order, arrive, run.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", label, run.name, err)
			}
			if d := raceShards.Load() - before; d != run.race {
				t.Fatalf("%s/%s: %d shards on the race path, want %d", label, run.name, d, run.race)
			}
			requireSameOpenResult(t, fmt.Sprintf("%s/%s", label, run.name), got, want)
		}
	}
}

// mixedShard puts n tasks on m ≥ 2 machines, each pinned, wide or on
// two or three machines at random; task 0 is pinned and task 1 wide, so
// with n ≥ 2 the cluster is one mixed shard.
func mixedShard(r *rng.Source, n, m int) *placement.Placement {
	p := placement.New(n, m)
	for j := 0; j < n; j++ {
		switch kind := r.Intn(3); {
		case j == 0 || (j > 1 && kind == 0):
			p.Assign(j, r.Intn(m))
		case j == 1 || kind == 1:
			p.Sets[j] = placement.Everywhere(1, m).Sets[0]
		default:
			p.Sets[j] = replicaSet(r.Perm(m)[:min(2+r.Intn(2), m)])
		}
	}
	return p
}

// FuzzRankSet holds the pending set to a sorted-set model: two sets
// side by side in one slab, sizes 1 to 5,000, under push, remove and
// min, with the operands drawn from near word (64) and summary (4,096)
// boundaries as often as from anywhere. After every operation both
// minima must match the model's, and once everything is removed the
// slab must be zero again, the state a reused runner relies on.
func FuzzRankSet(f *testing.F) {
	f.Add(uint16(1), uint16(1), []byte{0, 0, 0, 1, 0, 0})
	f.Add(uint16(64), uint16(65), []byte{0, 63, 0, 2, 1, 0, 1, 63, 0})
	f.Add(uint16(4096), uint16(4097), []byte{4, 0, 1, 5, 1, 2, 6, 0, 0, 3, 1, 1})
	f.Add(uint16(5000), uint16(129), []byte{0, 255, 255, 2, 7, 7, 1, 3, 3, 9, 9, 9})
	f.Add(uint16(0x8000|4160), uint16(3), []byte{1, 0, 0, 1, 0, 1, 5, 0, 64, 0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, sizeA, sizeB uint16, ops []byte) {
		sizes := [2]int{1 + int(sizeA)%5000, 1 + int(sizeB)%5000}
		var sets [2]rankSet
		end := sets[0].layout(0, sizes[0])
		end = sets[1].layout(end, sizes[1])
		slab := make([]uint64, end)
		model := [2][]bool{make([]bool, sizes[0]), make([]bool, sizes[1])}
		if sizeA&0x8000 != 0 { // set 0 starts whole, as a batch shard's sets do
			sets[0].fill(slab, sizes[0])
			for x := range model[0] {
				model[0][x] = true
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, v := ops[0], int(ops[1])<<8|int(ops[2])
			which := int(op>>1) & 1
			size := sizes[which]
			// Operands near a boundary: the words' and summaries' edges
			// and the set's own end, offset by -1, 0 or +1.
			var x int
			switch op >> 2 % 4 {
			case 0:
				x = v % size
			case 1:
				x = 64*(v>>2) + int(v&3) - 1
			case 2:
				x = 4096*(v>>2) + int(v&3) - 1
			default:
				x = size - 1 - v%3
			}
			x = min(max(x, 0), size-1)
			if op&1 == 0 {
				sets[which].push(slab, int32(x))
				model[which][x] = true
			} else {
				sets[which].remove(slab, int32(x))
				model[which][x] = false
			}
			for k := range sets {
				want := int32(-1)
				for y, in := range model[k] {
					if in {
						want = int32(y)
						break
					}
				}
				if got := sets[k].min(slab); got != want {
					t.Fatalf("sizes %v: set %d min = %d after %s %d, want %d", sizes, k, got,
						map[bool]string{true: "push", false: "remove"}[op&1 == 0], x, want)
				}
			}
		}
		for k := range sets {
			for x := sets[k].min(slab); x >= 0; x = sets[k].min(slab) {
				sets[k].remove(slab, x)
			}
		}
		for w, word := range slab {
			if word != 0 {
				t.Fatalf("sizes %v: slab word %d = %#x after emptying both sets", sizes, w, word)
			}
		}
	})
}

// TestFlatOpenTieHeavyDifferential is the deterministic slice of
// FuzzOpenWheel's racing half, so plain go test covers it without
// -fuzz: a few hundred seeds across every machine count up to 139.
func TestFlatOpenTieHeavyDifferential(t *testing.T) {
	seeds := uint64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := uint64(0); seed < seeds; seed++ {
		checkOpenTies(t, 1+int(seed*37%90), seed)
	}
}

// fuzzFailureRunner is FuzzFailures' pooled runner: it carries its state
// from input to input within a fuzzing process, as a pooled runner in
// production carries it from request to request.
var fuzzFailureRunner Runner

// FuzzFailures holds fail-stop runs to oracleRunFailures. An input is a
// placement — pseudo-random overlapping replica sets (fuzzPlacement) or,
// with crashByte's high bit set, one machine per task (nonePlacement),
// whose crashes mostly strand a task — a random priority order, actual
// times on a half-second grid and zero to six crashes on the same grid,
// a third of them at the time of an earlier crash and a sixth a copy of
// one. A fresh sharded run must end in the oracle's error, word for word,
// or its schedule, byte for byte. The input is then run on the pooled
// runner twice: with the crashes, against the oracle again, and without
// them, against a fresh crash-free run, record included, so that state a
// fail-stop run leaves behind (dead machines, completed flags, the retry
// list) cannot leak into the next run.
func FuzzFailures(f *testing.F) {
	f.Add(uint8(12), uint8(4), uint8(2), uint64(1))
	f.Add(uint8(40), uint8(8), uint8(6), uint64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint64(3))
	f.Add(uint8(30), uint8(6), uint8(0x80|3), uint64(4)) // none placement: strands
	f.Add(uint8(24), uint8(3), uint8(5), uint64(0xfeed))
	f.Fuzz(func(t *testing.T, nRaw, mRaw, crashByte uint8, seed uint64) {
		n := 1 + int(nRaw)%40
		m := 1 + int(mRaw)%8
		p := fuzzPlacement(n, m, seed)
		if crashByte&0x80 != 0 {
			p = nonePlacement(n, m, seed)
		}
		r := rng.New(seed ^ 0xfa11)
		act := make([]float64, n)
		halves := 0 // total work in half seconds
		for j := range act {
			h := 1 + r.Intn(12)
			act[j] = 0.5 * float64(h)
			halves += h
		}
		in, err := task.New(m, 1, act, act)
		if err != nil {
			t.Fatal(err)
		}
		order := r.Perm(n)
		failures := make([]Failure, 0, 6)
		for len(failures) < int(crashByte&0x7f)%7 {
			c := Failure{Machine: r.Intn(m), Time: 0.5 * float64(r.Intn(2+halves/m))}
			switch k := r.Intn(6); {
			case len(failures) > 0 && k < 2:
				c.Time = failures[r.Intn(len(failures))].Time // a tie
			case len(failures) > 0 && k == 2:
				c = failures[r.Intn(len(failures))] // a duplicate
			}
			failures = append(failures, c)
		}
		label := fmt.Sprintf("n=%d m=%d crashes=%v seed=%d", n, m, failures, seed)
		want, wantErr := oracleRunFailures(in, p, order, failures)
		check := func(run string, got *Result, err error) {
			t.Helper()
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%s/%s: err = %v, oracle err = %v", label, run, err, wantErr)
			case err != nil && err.Error() != wantErr.Error():
				t.Fatalf("%s/%s: err %q, oracle %q", label, run, err, wantErr)
			case err == nil && !reflect.DeepEqual(got.Schedule.Assignments, want.Assignments):
				t.Fatalf("%s/%s: schedule diverges from the oracle", label, run)
			}
		}
		got, err := RunFlatSharded(in, p, order, FlatOptions{Failures: failures})
		check("fresh", got, err)
		got, err = fuzzFailureRunner.RunSharded(in, p, order, FlatOptions{Failures: failures})
		check("pooled", got, err)

		healthy, err := RunFlatSharded(in, p, order, FlatOptions{})
		if err != nil {
			t.Fatalf("%s: crash-free run: %v", label, err)
		}
		pooled, err := fuzzFailureRunner.RunSharded(in, p, order, FlatOptions{})
		if err != nil {
			t.Fatalf("%s: pooled crash-free run: %v", label, err)
		}
		if !reflect.DeepEqual(pooled.Schedule, healthy.Schedule) {
			t.Fatalf("%s: pooled crash-free run diverges from a fresh one", label)
		}
	})
}
