package placement

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/task"
)

func inst(t *testing.T, n, m int) *task.Instance {
	t.Helper()
	est := make([]float64, n)
	for i := range est {
		est[i] = float64(i + 1)
	}
	in, err := task.NewEstimated(m, 2, est)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// AssignSet sets task j's replica set to a copy of machines, sorted
// and deduplicated: the tests' way to build a set by hand.
func (p *Placement) AssignSet(j int, machines []int) {
	set := make([]int, len(machines))
	copy(set, machines)
	sort.Ints(set)
	out := set[:0]
	for idx, mach := range set {
		if idx == 0 || mach != set[idx-1] {
			out = append(out, mach)
		}
	}
	p.Sets[j] = out
}

func TestAssignAndValidate(t *testing.T) {
	in := inst(t, 4, 3)
	p := New(4, 3)
	for j := 0; j < 4; j++ {
		p.Assign(j, j%3)
	}
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	if p.MaxReplication() != 1 || p.TotalReplicas() != 4 {
		t.Fatalf("replication counts wrong: max=%d total=%d", p.MaxReplication(), p.TotalReplicas())
	}
}

func TestAssignSetSortsAndDedups(t *testing.T) {
	p := New(1, 5)
	p.AssignSet(0, []int{3, 1, 3, 0})
	want := []int{0, 1, 3}
	if len(p.Sets[0]) != len(want) {
		t.Fatalf("got %v", p.Sets[0])
	}
	for i, v := range want {
		if p.Sets[0][i] != v {
			t.Fatalf("got %v, want %v", p.Sets[0], want)
		}
	}
}

func TestEverywhere(t *testing.T) {
	in := inst(t, 3, 4)
	p := Everywhere(3, 4)
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	if p.MaxReplication() != 4 || p.TotalReplicas() != 12 {
		t.Fatalf("everywhere counts: max=%d total=%d", p.MaxReplication(), p.TotalReplicas())
	}
}

func TestValidateCatchesEmptySet(t *testing.T) {
	in := inst(t, 2, 2)
	p := New(2, 2)
	p.Assign(0, 0)
	err := p.Validate(in)
	if !errors.Is(err, ErrEmptySet) {
		t.Fatalf("got %v, want ErrEmptySet", err)
	}
}

func TestValidateCatchesBadMachine(t *testing.T) {
	in := inst(t, 1, 2)
	p := New(1, 2)
	p.Sets[0] = []int{5}
	if err := p.Validate(in); !errors.Is(err, ErrBadMachine) {
		t.Fatalf("got %v, want ErrBadMachine", err)
	}
	p.Sets[0] = []int{-1}
	if err := p.Validate(in); !errors.Is(err, ErrBadMachine) {
		t.Fatalf("got %v, want ErrBadMachine", err)
	}
}

func TestValidateCatchesUnsorted(t *testing.T) {
	in := inst(t, 1, 3)
	p := New(1, 3)
	p.Sets[0] = []int{2, 1}
	if err := p.Validate(in); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("got %v, want ErrUnsorted", err)
	}
	p.Sets[0] = []int{1, 1}
	if err := p.Validate(in); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("got %v, want ErrUnsorted", err)
	}
}

func TestValidateCatchesShapeMismatch(t *testing.T) {
	in := inst(t, 3, 2)
	p := New(2, 2)
	p.Assign(0, 0)
	p.Assign(1, 1)
	if err := p.Validate(in); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

func TestPartitionGroups(t *testing.T) {
	groups, err := PartitionGroups(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 3 || len(groups[1]) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[1][0] != 3 {
		t.Fatalf("second group starts at %d, want 3", groups[1][0])
	}
}

func TestPartitionGroupsRejectsNonDivisors(t *testing.T) {
	if _, err := PartitionGroups(6, 4); err == nil {
		t.Fatal("k=4, m=6 accepted")
	}
	if _, err := PartitionGroups(6, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PartitionGroups(6, 7); err == nil {
		t.Fatal("k>m accepted")
	}
}

func TestGroupValidation(t *testing.T) {
	in := inst(t, 4, 6)
	groups, _ := PartitionGroups(6, 2)
	p := New(4, 6)
	p.Groups = groups
	p.GroupOf = []int{0, 1, 0, 1}
	for j, g := range p.GroupOf {
		p.AssignSet(j, groups[g])
	}
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	// Corrupt the mapping: task 0 claims group 0 but sits in group 1's
	// machines.
	p.AssignSet(0, groups[1])
	if err := p.Validate(in); !errors.Is(err, ErrGroupMapping) {
		t.Fatalf("got %v, want ErrGroupMapping", err)
	}
}

func TestGroupValidationCatchesNonPartition(t *testing.T) {
	in := inst(t, 1, 4)
	p := New(1, 4)
	p.Assign(0, 0)
	p.Groups = [][]int{{0, 1}, {1, 2}} // overlap, and machine 3 uncovered
	p.GroupOf = []int{0}
	p.AssignSet(0, p.Groups[0])
	if err := p.Validate(in); !errors.Is(err, ErrGroupShape) {
		t.Fatalf("got %v, want ErrGroupShape", err)
	}
}

func TestMemoryLoads(t *testing.T) {
	in := inst(t, 3, 2)
	if err := in.SetSizes([]float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	p := New(3, 2)
	p.Assign(0, 0)              // 10 on machine 0
	p.AssignSet(1, []int{0, 1}) // 20 on both
	p.Assign(2, 1)              // 30 on machine 1
	loads := p.MemoryLoads(in)
	if loads[0] != 30 || loads[1] != 50 {
		t.Fatalf("memory loads = %v, want [30 50]", loads)
	}
	if p.MaxMemory(in) != 50 {
		t.Fatalf("MaxMemory = %v, want 50", p.MaxMemory(in))
	}
}

// TestMemoryLoadsFullSetPass holds MemoryLoads' one-pass add for sets
// of every machine to the per-set loop it short-cuts, bit for bit, on
// random placements mixing one shared full set, singletons and random
// subsets (some full by chance), at machine counts that are not powers
// of two, with sizes whose float sums depend on the order of addition.
func TestMemoryLoadsFullSetPass(t *testing.T) {
	src := rng.New(29)
	for _, m := range []int{1, 2, 3, 7, 64, 100} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + src.Intn(300)
			in := inst(t, n, m)
			sizes := make([]float64, n)
			for j := range sizes {
				sizes[j] = src.Uniform(0.1, 1e3)
			}
			if err := in.SetSizes(sizes); err != nil {
				t.Fatal(err)
			}
			p := New(n, m)
			all := make([]int, m)
			for i := range all {
				all[i] = i
			}
			for j := 0; j < n; j++ {
				switch src.Intn(3) {
				case 0:
					p.Sets[j] = all
				case 1:
					p.Assign(j, src.Intn(m))
				default:
					set := make([]int, 1+src.Intn(m))
					for k := range set {
						set[k] = src.Intn(m)
					}
					p.AssignSet(j, set)
				}
			}
			if err := CheckSets(p.Sets, m); err != nil {
				t.Fatal(err)
			}
			want := make([]float64, m)
			for j, set := range p.Sets {
				for _, i := range set {
					want[i] += sizes[j]
				}
			}
			got := p.MemoryLoads(in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d trial %d: machine %d load %v, per-set loop %v", m, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPartitionGroupsProperty(t *testing.T) {
	f := func(mRaw, kRaw uint8) bool {
		m := int(mRaw%64) + 1
		k := int(kRaw%uint8(m)) + 1
		groups, err := PartitionGroups(m, k)
		if m%k != 0 {
			return err != nil
		}
		if err != nil {
			return false
		}
		seen := make([]bool, m)
		for _, g := range groups {
			if len(g) != m/k {
				return false
			}
			for _, i := range g {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSetGroupsReusesGroupOf: Reset drops the group bookkeeping and
// SetGroups brings GroupOf back at the new task count, zeroed, from the
// array the previous trial used.
func TestSetGroupsReusesGroupOf(t *testing.T) {
	groups, err := PartitionGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := New(5, 4)
	p.SetGroups(groups)
	for j := range p.GroupOf {
		p.GroupOf[j] = 1
	}
	p.Reset(3, 4)
	if p.Groups != nil || p.GroupOf != nil {
		t.Fatalf("Reset kept groups %v / GroupOf %v", p.Groups, p.GroupOf)
	}
	if avg := testing.AllocsPerRun(5, func() {
		p.Reset(3, 4)
		p.SetGroups(groups)
	}); avg != 0 {
		t.Errorf("Reset + SetGroups on a used placement: %v allocs, want 0", avg)
	}
	if len(p.GroupOf) != 3 || p.GroupOf[0]|p.GroupOf[1]|p.GroupOf[2] != 0 {
		t.Errorf("GroupOf = %v, want three zeros", p.GroupOf)
	}
}

// TestCheckSets exercises the raw-set validator the cluster layer uses
// for replica sets over backends (no Placement struct involved).
func TestCheckSets(t *testing.T) {
	// Tasks with equal replica sets share one slice; the shared-slice
	// skip must still check the first occurrence, and every distinct
	// slice behind it.
	shared, sharedBad := []int{0, 1}, []int{0, 5}
	cases := []struct {
		name string
		sets [][]int
		m    int
		want error
	}{
		{"valid", [][]int{{0, 2}, {1}, {0, 1, 2}}, 3, nil},
		{"shared valid", [][]int{shared, shared, shared}, 3, nil},
		{"shared invalid", [][]int{sharedBad, sharedBad}, 3, ErrBadMachine},
		{"invalid after shared", [][]int{shared, shared, {2, 1}, shared}, 3, ErrUnsorted},
		{"shared prefix of a longer set", [][]int{shared, shared[:1], {4}}, 3, ErrBadMachine},
		{"pinned between shared", [][]int{shared, {2}, shared, {1}, shared}, 3, nil},
		{"invalid pinned between shared", [][]int{shared, {2}, shared, {5}, shared}, 3, ErrBadMachine},
		{"empty list", [][]int{}, 3, nil},
		{"empty set", [][]int{{0}, {}}, 3, ErrEmptySet},
		{"negative machine", [][]int{{-1}}, 3, ErrBadMachine},
		{"machine at m", [][]int{{3}}, 3, ErrBadMachine},
		{"unsorted", [][]int{{2, 1}}, 3, ErrUnsorted},
		{"duplicate", [][]int{{1, 1}}, 3, ErrUnsorted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckSets(tc.sets, tc.m)
			if tc.want == nil && err != nil {
				t.Fatalf("CheckSets = %v, want nil", err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("CheckSets = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCheckSetsAgreesWithValidate: any placement Validate accepts,
// CheckSets accepts on the raw sets, and vice versa (same m, matching
// lengths).
func TestCheckSetsAgreesWithValidate(t *testing.T) {
	in := inst(t, 4, 3)
	p := Everywhere(4, 3)
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	if err := CheckSets(p.Sets, 3); err != nil {
		t.Fatalf("Validate accepted but CheckSets rejected: %v", err)
	}
	p.Sets[2] = []int{2, 0}
	if CheckSets(p.Sets, 3) == nil {
		t.Fatal("CheckSets accepted unsorted set")
	}
	if p.Validate(in) == nil {
		t.Fatal("Validate accepted unsorted set")
	}
}
