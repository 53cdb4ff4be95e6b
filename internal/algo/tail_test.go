package algo

import (
	"slices"
	"testing"

	"repro/internal/opt"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func TestReplicateTailPlacementShape(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "zipf", N: 30, M: 5, Alpha: 2, Seed: 3})
	res, err := Execute(in, ReplicateTail(4))
	if err != nil {
		t.Fatal(err)
	}
	full, single := 0, 0
	for _, set := range res.Placement.Sets {
		switch len(set) {
		case 5:
			full++
		case 1:
			single++
		default:
			t.Fatalf("unexpected replica count %d", len(set))
		}
	}
	if full != 4 || single != 26 {
		t.Fatalf("full=%d single=%d, want 4/26", full, single)
	}
}

func TestReplicateTailReplicatesSmallest(t *testing.T) {
	est := []float64{1, 50, 2, 40, 3}
	in, err := task.NewEstimated(3, 2, est)
	if err != nil {
		t.Fatal(err)
	}
	a := ReplicateTail(2)
	p, err := a.Place(in)
	if err != nil {
		t.Fatal(err)
	}
	// The two smallest tasks (estimates 1 and 2) are replicated.
	if len(p.Sets[0]) != 3 || len(p.Sets[2]) != 3 {
		t.Fatalf("smallest tasks not replicated: %v", p.Sets)
	}
	for _, j := range []int{1, 3, 4} {
		if len(p.Sets[j]) != 1 {
			t.Fatalf("large task %d replicated: %v", j, p.Sets[j])
		}
	}
}

func TestReplicateTailExtremes(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 20, M: 4, Alpha: 1.5, Seed: 5})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(6))

	// c=0 degenerates to LPT-No Choice.
	zero, err := Execute(in, ReplicateTail(0))
	if err != nil {
		t.Fatal(err)
	}
	noChoice, err := Execute(in, LPTNoChoice())
	if err != nil {
		t.Fatal(err)
	}
	if zero.Makespan != noChoice.Makespan {
		t.Fatalf("c=0 makespan %v != LPT-NoChoice %v", zero.Makespan, noChoice.Makespan)
	}

	// c >= n degenerates to LPT-No Restriction.
	all, err := Execute(in, ReplicateTail(999))
	if err != nil {
		t.Fatal(err)
	}
	noRestr, err := Execute(in, LPTNoRestriction())
	if err != nil {
		t.Fatal(err)
	}
	if all.Makespan != noRestr.Makespan {
		t.Fatalf("c=n makespan %v != LPT-NoRestriction %v", all.Makespan, noRestr.Makespan)
	}
}

func TestReplicateTailRejectsNegative(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "uniform", N: 5, M: 2, Alpha: 1.5, Seed: 1})
	if _, err := Execute(in, ReplicateTail(-1)); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestReplicateTailBeatsNoChoiceUnderAdversary(t *testing.T) {
	// Averaged over adversarial trials, a flexible tail must improve
	// on pure pinning: the deflated machines drain their queues early
	// and absorb the tail while the inflated machine struggles.
	src := rng.New(17)
	var sumNo, sumTail float64
	for trial := 0; trial < 20; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "uniform", N: 40, M: 5, Alpha: 2, Seed: src.Uint64(),
		})
		// Placement-aware adversary against the pinned placement.
		p, err := LPTNoChoice().Place(in)
		if err != nil {
			t.Fatal(err)
		}
		uncertainty.LoadedMachineAdversary{}.Perturb(in,
			&uncertainty.Context{Preferred: pinnedMachines(p), M: in.M}, nil)

		no, err := Execute(in, LPTNoChoice())
		if err != nil {
			t.Fatal(err)
		}
		tail, err := Execute(in, ReplicateTail(15))
		if err != nil {
			t.Fatal(err)
		}
		sumNo += no.Makespan
		sumTail += tail.Makespan
	}
	if sumTail >= sumNo {
		t.Fatalf("tail replication (%v) not better than pinning (%v)", sumTail, sumNo)
	}
}

func TestReplicateTailMemoryCostBounded(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "spmv", N: 50, M: 8, Alpha: 1.5, Seed: 9})
	c := 5
	res, err := Execute(in, ReplicateTail(c))
	if err != nil {
		t.Fatal(err)
	}
	// Total replicas = n + c·(m−1).
	want := 50 + c*(8-1)
	if got := res.Placement.TotalReplicas(); got != want {
		t.Fatalf("total replicas %d, want %d", got, want)
	}
}

func TestReplicateTailGuaranteeSanity(t *testing.T) {
	// No formal bound is proved for this extension; sanity-check that
	// its measured ratio stays within the LPT-No Choice guarantee on
	// exactly solvable instances (it only adds flexibility).
	src := rng.New(23)
	for trial := 0; trial < 15; trial++ {
		in := workload.MustNew(workload.Spec{
			Name: "uniform", N: 12, M: 3, Alpha: 1.5, Seed: src.Uint64(),
		})
		uncertainty.Extremes{}.Perturb(in, nil, rng.New(src.Uint64()))
		star, ok := opt.Exact(in.Actuals(), 3, 20_000_000)
		if !ok {
			t.Fatal("exact exhausted")
		}
		res, err := Execute(in, ReplicateTail(3))
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * in.Alpha * in.Alpha * 3 / (2*in.Alpha*in.Alpha + 2)
		if ratio := res.Makespan / star; ratio > bound+1e-9 {
			t.Fatalf("trial %d: ratio %v above LPT-NoChoice bound %v", trial, ratio, bound)
		}
	}
}

func TestRegistryTail(t *testing.T) {
	a, err := New("tail:7")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "ReplicateTail(c=7)" {
		t.Fatalf("Name = %q", a.Name())
	}
	for _, bad := range []string{"tail:", "tail:-1", "tail:x"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

// TestReplicateTailSharesOneSet pins the tail's shared replica set: it
// is every machine, in order, and every tail task holds the same slice.
func TestReplicateTailSharesOneSet(t *testing.T) {
	in := workload.MustNew(workload.Spec{Name: "zipf", N: 30, M: 5, Alpha: 2, Seed: 3})
	p, err := ReplicateTail(6).Place(in)
	if err != nil {
		t.Fatal(err)
	}
	want := placement.Everywhere(1, in.M)
	var first []int
	for j, set := range p.Sets {
		if len(set) == 1 {
			continue
		}
		if !slices.Equal(set, want.Sets[0]) {
			t.Fatalf("task %d: set %v, want %v", j, set, want.Sets[0])
		}
		if first == nil {
			first = set
		} else if !placement.SameSet(set, first) {
			t.Fatalf("task %d holds the all-machines set in its own slice", j)
		}
	}
	if first == nil {
		t.Fatal("no replicated task")
	}
}
