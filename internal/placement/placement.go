// Package placement represents the output of phase 1: for every task j
// a replica set M_j ⊆ M of machines that hold the task's input data,
// plus (for the group strategy) the partition of machines into groups.
//
// Phase 2 may only run task j on a machine in M_j. The replication
// strategies constrain the sets:
//
//   - no replication:       |M_j| = 1
//   - replicate everywhere: |M_j| = m
//   - replication bound k:  |M_j| ≤ k
//   - groups:               M_j is exactly one of the k groups
//
// Validate checks that every set is well formed and, for the group
// strategy, that M_j is its task's group.
package placement

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/task"
)

// Placement is a phase-1 decision.
type Placement struct {
	// M is the machine count.
	M int
	// Sets[j] lists the machines holding task j's data, sorted
	// ascending without duplicates.
	Sets [][]int
	// Groups, when non-nil, partitions machines into groups; Groups[g]
	// lists group g's machines. Only the group strategy sets it.
	Groups [][]int
	// GroupOf, when Groups is non-nil, maps each task to its group.
	GroupOf []int

	// backing is a shared slab for singleton replica sets: Assign
	// carves one-element sets out of it instead of allocating a fresh
	// []int per task (previously n allocations for a no-replication
	// placement). Invisible to JSON and to readers of Sets.
	backing []int
	// groupBuf is the array SetGroups carves GroupOf from, kept across
	// Reset so a reused placement does not allocate n ints per trial.
	groupBuf []int
}

// Validation errors.
var (
	ErrShape        = errors.New("placement: wrong number of tasks or machines")
	ErrEmptySet     = errors.New("placement: task has empty replica set")
	ErrBadMachine   = errors.New("placement: replica set references invalid machine")
	ErrUnsorted     = errors.New("placement: replica set not sorted or has duplicates")
	ErrGroupShape   = errors.New("placement: groups do not partition the machines")
	ErrGroupMapping = errors.New("placement: task replica set is not its group")
)

// New returns an empty placement for n tasks on m machines.
func New(n, m int) *Placement {
	return &Placement{M: m, Sets: make([][]int, n)}
}

// N returns the number of tasks covered by the placement.
func (p *Placement) N() int { return len(p.Sets) }

// Reset re-initializes the placement as an empty n-task, m-machine
// decision, reusing the Sets and backing buffers. Every field is
// rebuilt or cleared — Groups and GroupOf are dropped (SetGroups
// brings GroupOf back zeroed), all replica sets are nil — so a pooled
// Placement cannot leak sets from a previous trial.
func (p *Placement) Reset(n, m int) {
	p.M = m
	if cap(p.Sets) < n {
		p.Sets = make([][]int, n)
	} else {
		p.Sets = p.Sets[:n]
		clear(p.Sets)
	}
	p.Groups = nil
	p.GroupOf = nil
	p.backing = p.backing[:0]
	p.groupBuf = p.groupBuf[:0]
}

// SetGroups records the partition of machines into groups and sizes
// GroupOf to one zeroed entry per task, for the caller to fill.
func (p *Placement) SetGroups(groups [][]int) {
	p.Groups = groups
	n := len(p.Sets)
	if cap(p.groupBuf) < n {
		p.groupBuf = make([]int, n)
	}
	p.groupBuf = p.groupBuf[:n]
	clear(p.groupBuf)
	p.GroupOf = p.groupBuf
}

// Assign sets task j's replica set to exactly machine i.
func (p *Placement) Assign(j, i int) {
	if cap(p.backing) == len(p.backing) {
		// Grow the slab to cover the whole instance at once. Earlier
		// sets keep pointing into the previous slab, which stays valid.
		grow := len(p.Sets)
		if grow < 16 {
			grow = 16
		}
		p.backing = make([]int, 0, grow)
	}
	p.backing = append(p.backing, i)
	p.Sets[j] = p.backing[len(p.backing)-1 : len(p.backing) : len(p.backing)]
}

// Everywhere places every task on all machines.
func Everywhere(n, m int) *Placement {
	p := New(n, m)
	EverywhereInto(n, m, p)
	return p
}

// EverywhereInto writes the full-replication placement into p, reusing
// its buffers: the all-machines set is carved from the backing slab and
// shared by every task (replica sets are read-only by convention).
func EverywhereInto(n, m int, p *Placement) {
	p.Reset(n, m)
	if cap(p.backing) < m {
		p.backing = make([]int, 0, m)
	}
	p.backing = p.backing[:m:m]
	all := p.backing
	for i := range all {
		all[i] = i
	}
	for j := range p.Sets {
		p.Sets[j] = all
	}
}

// MaxReplication returns max_j |M_j|.
func (p *Placement) MaxReplication() int {
	max := 0
	for _, set := range p.Sets {
		if len(set) > max {
			max = len(set)
		}
	}
	return max
}

// TotalReplicas returns Σ_j |M_j|, the total number of data copies.
func (p *Placement) TotalReplicas() int {
	total := 0
	for _, set := range p.Sets {
		total += len(set)
	}
	return total
}

// MemoryLoads returns, for each machine, the total size of the tasks
// replicated on it: Mem_i = Σ_{j: i ∈ M_j} s_j (memory-aware model).
// A set of all M machines is 0..M-1 (CheckSets' invariant), so it adds
// to every load in one straight loop, each in task order as before.
func (p *Placement) MemoryLoads(in *task.Instance) []float64 {
	loads := make([]float64, p.M)
	for j, set := range p.Sets {
		s := in.Tasks[j].Size
		if len(set) == len(loads) {
			for i := range loads {
				loads[i] += s
			}
			continue
		}
		for _, i := range set {
			loads[i] += s
		}
	}
	return loads
}

// MaxMemory returns max_i Mem_i.
func (p *Placement) MaxMemory(in *task.Instance) float64 {
	max := 0.0
	for _, l := range p.MemoryLoads(in) {
		if l > max {
			max = l
		}
	}
	return max
}

// SameSet reports whether two non-empty replica sets are one slice —
// same memory, hence same machines. Replica sets are read-only by
// convention and tasks with equal sets share one (EverywhereInto hands
// every task the same slice), so a pass over Sets can skip a set that is
// the previous task's very slice instead of re-reading it. A false
// answer says nothing: distinct slices may still hold equal machines.
func SameSet(a, b []int) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// CheckSets validates a slice of replica sets against a machine count
// m, independently of any instance: every set must be non-empty,
// reference only machines in [0, m), and be strictly ascending (sorted
// with no duplicates). It is the shared structural check behind
// Validate and external consumers of phase-1 replica sets — notably
// the cluster dispatcher, which reuses the same set shape with
// backends standing in for machines.
func CheckSets(sets [][]int, m int) error {
	var prev []int
	for j, set := range sets {
		if len(set) == 0 {
			return fmt.Errorf("%w: task %d", ErrEmptySet, j)
		}
		if SameSet(set, prev) {
			continue // checked a moment ago
		}
		if len(set) > 1 {
			prev = set // kept across the pinned tasks an ABO placement interleaves
		}
		for idx, i := range set {
			if i < 0 || i >= m {
				return fmt.Errorf("%w: task %d machine %d", ErrBadMachine, j, i)
			}
			if idx > 0 && set[idx-1] >= i {
				return fmt.Errorf("%w: task %d", ErrUnsorted, j)
			}
		}
	}
	return nil
}

// Validate checks structural soundness against the instance: one set
// per task, sets non-empty, machine indices valid, sets sorted and
// duplicate-free, and group bookkeeping consistent when present.
func (p *Placement) Validate(in *task.Instance) error {
	if len(p.Sets) != in.N() || p.M != in.M {
		return fmt.Errorf("%w: placement %dx%d vs instance %dx%d",
			ErrShape, len(p.Sets), p.M, in.N(), in.M)
	}
	if err := CheckSets(p.Sets, p.M); err != nil {
		return err
	}
	if p.Groups != nil {
		if err := p.validateGroups(); err != nil {
			return err
		}
	}
	return nil
}

func (p *Placement) validateGroups() error {
	seen := make([]bool, p.M)
	count := 0
	for g, ms := range p.Groups {
		if len(ms) == 0 {
			return fmt.Errorf("%w: group %d empty", ErrGroupShape, g)
		}
		for _, i := range ms {
			if i < 0 || i >= p.M || seen[i] {
				return fmt.Errorf("%w: group %d machine %d", ErrGroupShape, g, i)
			}
			seen[i] = true
			count++
		}
	}
	if count != p.M {
		return fmt.Errorf("%w: %d machines covered of %d", ErrGroupShape, count, p.M)
	}
	if len(p.GroupOf) != len(p.Sets) {
		return fmt.Errorf("%w: GroupOf has %d entries for %d tasks",
			ErrGroupMapping, len(p.GroupOf), len(p.Sets))
	}
	// Sets are ascending (CheckSets), and groups from the partition
	// constructors are too, so the per-task set-vs-group comparison is
	// a direct walk. A group stored unsorted (legal for hand-built
	// placements) gets one sorted copy — once per group, not once per
	// task, which used to dominate the allocation profile of
	// group-strategy runs (n allocations per Validate at n tasks).
	var sorted [][]int // lazily built, only when some group is unsorted
	for j, g := range p.GroupOf {
		if g < 0 || g >= len(p.Groups) {
			return fmt.Errorf("%w: task %d group %d", ErrGroupMapping, j, g)
		}
		ref := p.Groups[g]
		if !sort.IntsAreSorted(ref) {
			if sorted == nil {
				sorted = make([][]int, len(p.Groups))
			}
			if sorted[g] == nil {
				bs := make([]int, len(ref))
				copy(bs, ref)
				sort.Ints(bs)
				sorted[g] = bs
			}
			ref = sorted[g]
		}
		if !equalAscending(p.Sets[j], ref) {
			return fmt.Errorf("%w: task %d", ErrGroupMapping, j)
		}
	}
	return nil
}

// equalAscending compares two ascending machine lists element-wise.
func equalAscending(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PartitionGroups splits m machines into k equal contiguous groups.
// It returns an error unless k divides m (the paper's simplifying
// assumption) and 1 ≤ k ≤ m.
func PartitionGroups(m, k int) ([][]int, error) {
	if k < 1 || k > m {
		return nil, fmt.Errorf("placement: k=%d out of range [1, %d]", k, m)
	}
	if m%k != 0 {
		return nil, fmt.Errorf("placement: k=%d does not divide m=%d", k, m)
	}
	size := m / k
	groups := make([][]int, k)
	for g := 0; g < k; g++ {
		ms := make([]int, size)
		for i := range ms {
			ms[i] = g*size + i
		}
		groups[g] = ms
	}
	return groups, nil
}

// PartitionGroupsBalanced splits m machines into k contiguous groups
// whose sizes differ by at most one (the first m mod k groups get the
// extra machine) — the generalization the paper's "k divides m"
// assumption sidesteps. It requires 1 ≤ k ≤ m.
func PartitionGroupsBalanced(m, k int) ([][]int, error) {
	if k < 1 || k > m {
		return nil, fmt.Errorf("placement: k=%d out of range [1, %d]", k, m)
	}
	groups := make([][]int, k)
	next := 0
	for g := 0; g < k; g++ {
		size := m / k
		if g < m%k {
			size++
		}
		ms := make([]int, size)
		for i := range ms {
			ms[i] = next
			next++
		}
		groups[g] = ms
	}
	return groups, nil
}
