package memaware

import (
	"fmt"

	"repro/internal/loadheap"
	"repro/internal/placement"
	"repro/internal/task"
)

// GABO runs a group-replicated variant of ABO_Δ that combines the
// paper's two models — an extension beyond the paper (its conclusion
// calls for replication policies between "one machine" and
// "everywhere" and for replication costs): memory-intensive tasks are
// pinned per π2 exactly as in ABO_Δ, while time-intensive tasks are
// replicated only within one of k machine groups (chosen by list
// scheduling on estimated load, as in LS-Group) instead of on every
// machine. k must divide m.
//
// Intuition for the tradeoff: each time-intensive task costs m/k
// memory copies instead of m, while phase 2 retains within-group
// flexibility. No approximation bound is proved here; experiment e3
// measures the empirical memory–makespan position between SABO_Δ
// (k=m, fully pinned per π1 would be) and ABO_Δ (k=1). With k=1 GABO
// coincides with ABO_Δ.
func GABO(in *task.Instance, cfg Config, k int) (*Result, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.gabo(in, cfg, k)
}

func (sc *scratch) gabo(in *task.Instance, cfg Config, k int) (*Result, error) {
	groups, err := placement.PartitionGroups(in.M, k)
	if err != nil {
		return nil, err
	}
	_, pi2, cmax1, mem2, inS2, err := sc.split(in, cfg)
	if err != nil {
		return nil, err
	}

	p := placement.New(in.N(), in.M)
	order, s1, s2 := sides(inS2)
	for _, j := range s2 {
		p.Assign(j, pi2[j])
	}
	// Assign time-intensive tasks to groups by estimated load (list
	// scheduling over groups, LS-Group's phase 1).
	var loads loadheap.Tree[float64]
	loads.Reset(k)
	for _, j := range s1 {
		p.Sets[j] = groups[loads.MinID()] // ascending already; shared by the group's tasks
		loads.AddToMin(in.Tasks[j].Estimate)
	}

	// Phase 2: pinned memory tasks first, then the group-replicated
	// time-intensive tasks in list order.
	s, err := sc.execute(in, p, order)
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:       fmt.Sprintf("GABO(Δ=%.3g,k=%d)", cfg.Delta, k),
		Placement:       p,
		Schedule:        s,
		Makespan:        s.Makespan(),
		MemMax:          p.MaxMemory(in),
		TimeIntensive:   s1,
		MemoryIntensive: s2,
		PlannedMakespan: cmax1,
		PlannedMemory:   mem2,
	}, nil
}
