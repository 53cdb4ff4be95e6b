package algo

import (
	"fmt"

	"repro/internal/loadheap"
	"repro/internal/placement"
	"repro/internal/task"
)

// replicateTail implements the model sketched in the paper's
// conclusion ("a more realistic model would introduce a cost of
// replicating a task ... replicate only some critical tasks and limit
// memory usage"): the n−c largest tasks are pinned by LPT on the
// estimates, and only the c smallest tasks are replicated on every
// machine.
//
// Why the *smallest* tasks are the critical ones: flexibility pays off
// at the end of the schedule, when actual durations have revealed
// which machines run slow — the head tasks all start at time 0 on
// idle machines, so replicating them buys nothing (an online
// dispatcher makes the same time-0 choices as LPT placement). The
// flexible tail drains toward whichever machines turned out fast,
// exactly the mechanism behind LPT-No Restriction's guarantee, whose
// Lemma 1 only needs flexibility for the task that finishes last. As
// c→0 this degenerates to LPT-No Choice, as c→n to LPT-No
// Restriction; experiment e6 measures the interior.
type replicateTail struct {
	count int
}

// ReplicateTail returns the tail-replication algorithm: the count
// smallest tasks (by estimate) are replicated everywhere and
// dispatched online after the pinned tasks.
func ReplicateTail(count int) Algorithm {
	return replicateTail{count: count}
}

func (r replicateTail) Name() string {
	return fmt.Sprintf("ReplicateTail(c=%d)", r.count)
}

// Guarantee: the future-work model comes with no proved bound.
func (replicateTail) Guarantee(int, float64) (float64, bool) { return 0, false }

func (r replicateTail) Place(in *task.Instance) (*placement.Placement, error) {
	p := placement.New(in.N(), in.M)
	if err := r.placeInto(in, p, lptOrder(in), nil); err != nil {
		return nil, err
	}
	return p, nil
}

func (r replicateTail) placeInto(in *task.Instance, p *placement.Placement, order []int, _ *lptSorter) error {
	if r.count < 0 {
		return fmt.Errorf("algo: tail count %d negative", r.count)
	}
	cut := max(in.N()-r.count, 0)
	p.Reset(in.N(), in.M)
	// Pin the head by LPT over the estimates; replicate the tail.
	var loads loadheap.Tree[float64]
	loads.Reset(in.M)
	for _, j := range order[:cut] {
		p.Assign(j, loads.MinID())
		loads.AddToMin(in.Tasks[j].Estimate)
	}
	all := make([]int, in.M)
	for i := range all {
		all[i] = i
	}
	for _, j := range order[cut:] {
		p.Sets[j] = all // one ascending set shared by the whole tail
	}
	return nil
}

// Order is plain LPT order: pinned head tasks have the larger
// estimates and therefore drain first on their machines; the
// replicated tail follows as machines become idle.
func (replicateTail) Order(in *task.Instance) []int { return lptOrder(in) }

func (replicateTail) appendOrder(in *task.Instance, l *lptSorter, buf []int) []int {
	return l.byEstimate(in, buf)
}
