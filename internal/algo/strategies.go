package algo

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/loadheap"
	"repro/internal/placement"
	"repro/internal/task"
)

// lptNoChoice is strategy 1 of the paper.
type lptNoChoice struct{}

// LPTNoChoice returns the paper's LPT-No Choice algorithm: LPT
// placement on estimates, no replication, no phase-2 freedom.
func LPTNoChoice() Algorithm { return lptNoChoice{} }

func (lptNoChoice) Name() string { return "LPT-NoChoice" }

// Guarantee is Theorem 2.
func (lptNoChoice) Guarantee(m int, alpha float64) (float64, bool) {
	return bounds.LPTNoChoice(m, alpha), true
}

func (lptNoChoice) Place(in *task.Instance) (*placement.Placement, error) {
	return minLoadPlacement(in, lptOrder(in)), nil
}

func (lptNoChoice) placeInto(in *task.Instance, p *placement.Placement, order []int, _ *lptSorter) error {
	minLoadPlacementInto(in, order, p)
	return nil
}

// Order is irrelevant for singleton replica sets (each machine simply
// drains its own queue), but LPT order keeps traces intuitive.
func (lptNoChoice) Order(in *task.Instance) []int { return lptOrder(in) }

func (lptNoChoice) appendOrder(in *task.Instance, l *lptSorter, buf []int) []int {
	return l.byEstimate(in, buf)
}

// lsNoChoice is the List Scheduling baseline without replication.
type lsNoChoice struct{}

// LSNoChoice returns a no-replication baseline that places tasks in
// input order on the least-loaded machine (List Scheduling on
// estimates).
func LSNoChoice() Algorithm { return lsNoChoice{} }

func (lsNoChoice) Name() string { return "LS-NoChoice" }

// Guarantee: the paper states no bound for unsorted pinning.
func (lsNoChoice) Guarantee(int, float64) (float64, bool) { return 0, false }

func (lsNoChoice) Place(in *task.Instance) (*placement.Placement, error) {
	return minLoadPlacement(in, listOrder(in)), nil
}

func (lsNoChoice) placeInto(in *task.Instance, p *placement.Placement, order []int, _ *lptSorter) error {
	minLoadPlacementInto(in, order, p)
	return nil
}

func (lsNoChoice) Order(in *task.Instance) []int { return listOrder(in) }

func (lsNoChoice) appendOrder(in *task.Instance, _ *lptSorter, buf []int) []int {
	return appendListOrder(in, buf)
}

// lptNoRestriction is strategy 2 of the paper.
type lptNoRestriction struct{}

// LPTNoRestriction returns the paper's LPT-No Restriction algorithm:
// full replication in phase 1, online LPT on estimates in phase 2.
func LPTNoRestriction() Algorithm { return lptNoRestriction{} }

func (lptNoRestriction) Name() string { return "LPT-NoRestriction" }

// Guarantee is min(Theorem 3, Graham's 2−1/m).
func (lptNoRestriction) Guarantee(m int, alpha float64) (float64, bool) {
	return bounds.LPTNoRestriction(m, alpha), true
}

func (lptNoRestriction) Place(in *task.Instance) (*placement.Placement, error) {
	return placement.Everywhere(in.N(), in.M), nil
}

func (lptNoRestriction) placeInto(in *task.Instance, p *placement.Placement, _ []int, _ *lptSorter) error {
	placement.EverywhereInto(in.N(), in.M, p)
	return nil
}

func (lptNoRestriction) Order(in *task.Instance) []int { return lptOrder(in) }

func (lptNoRestriction) appendOrder(in *task.Instance, l *lptSorter, buf []int) []int {
	return l.byEstimate(in, buf)
}

// lsNoRestriction is Graham's online List Scheduling with full
// replication: the 2−1/m baseline.
type lsNoRestriction struct{}

// LSNoRestriction returns Graham's List Scheduling over fully
// replicated data: tasks in input order, first idle machine.
func LSNoRestriction() Algorithm { return lsNoRestriction{} }

func (lsNoRestriction) Name() string { return "LS-NoRestriction" }

// Guarantee is Graham's List Scheduling bound 2−1/m, α-independent.
func (lsNoRestriction) Guarantee(m int, _ float64) (float64, bool) {
	return bounds.GrahamLS(m), true
}

func (lsNoRestriction) Place(in *task.Instance) (*placement.Placement, error) {
	return placement.Everywhere(in.N(), in.M), nil
}

func (lsNoRestriction) placeInto(in *task.Instance, p *placement.Placement, _ []int, _ *lptSorter) error {
	placement.EverywhereInto(in.N(), in.M, p)
	return nil
}

func (lsNoRestriction) Order(in *task.Instance) []int { return listOrder(in) }

func (lsNoRestriction) appendOrder(in *task.Instance, _ *lptSorter, buf []int) []int {
	return appendListOrder(in, buf)
}

// group implements strategy 3 (and its LPT and balanced variants).
type group struct {
	k        int
	lpt      bool
	balanced bool
}

// LSGroup returns the paper's LS-Group algorithm with k groups of m/k
// machines: phase 1 list-schedules tasks onto groups by estimated
// group load; phase 2 list-schedules online within each group. k must
// divide m at Place time.
func LSGroup(k int) Algorithm { return group{k: k} }

// LPTGroup is the LPT-based variant of LS-Group the paper mentions:
// both phases process tasks in non-increasing estimate order.
func LPTGroup(k int) Algorithm { return group{k: k, lpt: true} }

// LSGroupBalanced generalizes LS-Group to any k ≤ m by allowing group
// sizes to differ by one machine — lifting the paper's "k divides m"
// simplification. Theorem 4's guarantee formula applies verbatim only
// to the divisible case; for unequal groups it holds with m/k replaced
// by the smallest group size (the phase-2 List Scheduling step only
// weakens).
func LSGroupBalanced(k int) Algorithm { return group{k: k, balanced: true} }

func (g group) Name() string {
	switch {
	case g.lpt:
		return fmt.Sprintf("LPT-Group(k=%d)", g.k)
	case g.balanced:
		return fmt.Sprintf("LS-GroupBalanced(k=%d)", g.k)
	default:
		return fmt.Sprintf("LS-Group(k=%d)", g.k)
	}
}

// Guarantee is Theorem 4 for 1 ≤ k ≤ m. The LPT variant shares it: the
// proof is a List Scheduling argument that holds for any phase-2
// priority order. The balanced variant has it only when k divides m
// (the paper's simplification; unequal groups void the formula).
func (g group) Guarantee(m int, alpha float64) (float64, bool) {
	if g.k < 1 || g.k > m || (g.balanced && m%g.k != 0) {
		return 0, false
	}
	return bounds.LSGroup(m, g.k, alpha), true
}

func (g group) Order(in *task.Instance) []int {
	if g.lpt {
		return lptOrder(in)
	}
	return listOrder(in)
}

func (g group) appendOrder(in *task.Instance, l *lptSorter, buf []int) []int {
	if g.lpt {
		return l.byEstimate(in, buf)
	}
	return appendListOrder(in, buf)
}

func (g group) Place(in *task.Instance) (*placement.Placement, error) {
	p := placement.New(in.N(), in.M)
	if err := g.placeInto(in, p, g.Order(in), nil); err != nil {
		return nil, err
	}
	return p, nil
}

func (g group) placeInto(in *task.Instance, p *placement.Placement, order []int, _ *lptSorter) error {
	partition := placement.PartitionGroups
	if g.balanced {
		partition = placement.PartitionGroupsBalanced
	}
	groups, err := partition(in.M, g.k)
	if err != nil {
		return err
	}
	p.Reset(in.N(), in.M)
	p.SetGroups(groups)
	var loads loadheap.Tree[float64]
	loads.Reset(g.k)
	for _, j := range order {
		best := loads.MinID()
		p.GroupOf[j] = best
		// Groups are already sorted machine lists; share them across
		// tasks instead of copying one per task.
		p.Sets[j] = groups[best]
		loads.AddToMin(in.Tasks[j].Estimate)
	}
	return nil
}

// oracleLPT is a clairvoyant baseline: LPT on the *actual* times. It
// breaks the semi-clairvoyant rules on purpose, providing the
// "if we had known" reference the paper's adversary argument compares
// against.
type oracleLPT struct{}

// OracleLPT returns the clairvoyant LPT baseline (places by actual
// processing times; full information). Use only as a reference point.
func OracleLPT() Algorithm { return oracleLPT{} }

func (oracleLPT) Name() string { return "Oracle-LPT" }

// Guarantee is Graham's offline LPT bound 4/3−1/(3m), α-independent:
// the oracle list-schedules the actual times.
func (oracleLPT) Guarantee(m int, _ float64) (float64, bool) {
	return bounds.LPTOffline(m), true
}

func (oracleLPT) Place(in *task.Instance) (*placement.Placement, error) {
	p := placement.New(in.N(), in.M)
	return p, (oracleLPT{}).placeInto(in, p, nil, new(lptSorter))
}

func (oracleLPT) placeInto(in *task.Instance, p *placement.Placement, _ []int, l *lptSorter) error {
	// Visit by actual time, not estimate: this baseline is omniscient.
	l.order = l.byActual(in, l.order)
	p.Reset(in.N(), in.M)
	var loads loadheap.Tree[float64]
	loads.Reset(in.M)
	for _, j := range l.order {
		p.Assign(j, loads.MinID())
		loads.AddToMin(in.Tasks[j].Actual)
	}
	return nil
}

func (oracleLPT) Order(in *task.Instance) []int { return lptOrder(in) }

func (oracleLPT) appendOrder(in *task.Instance, l *lptSorter, buf []int) []int {
	return l.byEstimate(in, buf)
}
