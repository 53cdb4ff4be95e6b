package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bounds"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
)

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
		p.AssignSet(j, set) // sorts and dedups
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

		machineShard, taskShard, nShards, err := PartitionShards(p)
		if err != nil {
			t.Fatalf("PartitionShards: %v", err)
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
		want, err := RunFlat(in, p, order, FlatOptions{Trace: true})
		if err != nil {
			t.Fatalf("RunFlat: %v", err)
		}
		for _, w := range []int{2, 3, 16} {
			got, err := RunFlatSharded(in, p, order, FlatOptions{Trace: true}, w)
			if err != nil {
				t.Fatalf("RunFlatSharded(workers=%d): %v", w, err)
			}
			if !reflect.DeepEqual(got.Schedule.Assignments, want.Schedule.Assignments) {
				t.Fatalf("workers=%d: merged schedule not a reassembly of the sequential run", w)
			}
			if !reflect.DeepEqual(got.Trace, want.Trace) {
				t.Fatalf("workers=%d: merged trace diverges", w)
			}
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
	open, err := RunFlatOpen(in, placement.Everywhere(n, m), lptOrder(in), make([]float64, n),
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
// wake-ups and arrivals at one tick, at zero cancel cost too. On a
// uniform placement — every task everywhere, or on one of two balanced
// groups — over up to 139 machines (three mask words) in a random priority
// order, three runs must equal oracleRunOpen byte for byte at 1 and 3
// workers: the race-collapse path, the same inputs pushed off it onto
// replayUniform by an identity Duration hook (which changes no
// duration), and the sequential Run (one shard; two groups make it
// replayGeneral). The shards-by-path counter confirms each route.
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
	if m > 1 && r.Intn(2) == 0 {
		groups, err := placement.PartitionGroupsBalanced(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		p = placement.New(n, m)
		for j := 0; j < n; j++ {
			p.AssignSet(j, groups[r.Intn(2)])
		}
	}
	// Every shard is uniform, a group no task chose split into one-machine
	// shards, so every shard is on the race path.
	_, _, nShards, err := PartitionShards(p)
	if err != nil {
		t.Fatal(err)
	}
	shards := int64(nShards)
	opts := OpenOptions{Policy: CancelOnCompletion, CancelCost: float64(r.Intn(3))}
	hooked := opts
	hooked.Duration = func(j, _ int) float64 { return in.Tasks[j].Actual }
	label := fmt.Sprintf("n=%d m=%d shards=%d cost=%v seed=%d", n, m, shards, opts.CancelCost, seed)
	want := oracleRunOpen(in, p, order, arrive, opts)
	seq, err := RunFlatOpen(in, p, order, arrive, opts)
	if err != nil {
		t.Fatalf("%s: sequential: %v", label, err)
	}
	requireSameOpenResult(t, label+"/sequential", seq, want)
	raceShards := obs.GetCounter("sim.shards_race_collapse")
	for _, w := range []int{1, 3} {
		for _, run := range []struct {
			name string
			opts OpenOptions
			race int64
		}{{"race", opts, shards}, {"hooked", hooked, 0}} {
			before := raceShards.Load()
			got, err := RunFlatOpenSharded(in, p, order, arrive, run.opts, w)
			if err != nil {
				t.Fatalf("%s/%s/workers=%d: %v", label, run.name, w, err)
			}
			if d := raceShards.Load() - before; d != run.race {
				t.Fatalf("%s/%s/workers=%d: %d shards on the race path, want %d", label, run.name, w, d, run.race)
			}
			requireSameOpenResult(t, fmt.Sprintf("%s/%s/workers=%d", label, run.name, w), got, want)
		}
	}
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
