package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/placement"
	"repro/internal/serve"
)

// Strategy kinds, mirroring the paper's phase-1 menu with backends
// standing in for machines.
const (
	stratAll = iota // replicate everywhere (|M_j| = m)
	stratNone
	stratGroup // group replication (|M_j| = m/k)
)

type strategy struct {
	kind   int
	groups [][]int // stratGroup: the backend partition
}

// parseStrategy resolves a strategy name against nb backends. The
// empty string selects full replication — robustness is the point of
// the proxy, so it is the default.
func parseStrategy(s string, nb int) (strategy, error) {
	switch name := strings.ToLower(strings.TrimSpace(s)); {
	case name == "" || name == "all" || name == "full":
		return strategy{kind: stratAll}, nil
	case name == "none" || name == "single":
		return strategy{kind: stratNone}, nil
	case strings.HasPrefix(name, "group:"):
		k, err := strconv.Atoi(name[len("group:"):])
		if err != nil {
			return strategy{}, fmt.Errorf("cluster: bad group count in strategy %q", s)
		}
		// PartitionGroups enforces 1 ≤ k ≤ nb and k | nb; run here, a
		// misconfiguration fails at startup, not mid-batch.
		groups, err := placement.PartitionGroups(nb, k)
		if err != nil {
			return strategy{}, err
		}
		return strategy{kind: stratGroup, groups: groups}, nil
	default:
		return strategy{}, fmt.Errorf("cluster: unknown strategy %q (want none, all, or group:k)", s)
	}
}

// replicaSets computes the phase-1 placement of a batch over the
// backend pool: Sets[i] lists the backends allowed to run item i. An
// explicit request override wins, then a request strategy, then the
// configured default — and a strategy is the stream placer run over
// the batch, so a batch and a stream of the same items place alike.
// The computation is deterministic (greedy least estimated load, ties
// to the lowest index) so identical batches place identically — the
// metamorphic tests rely on it.
func (c *Cluster) replicaSets(req *BatchRequest) ([][]int, error) {
	n := len(req.Requests)
	nb := len(c.backends)
	strat := c.strat
	if req.Placement != nil {
		if req.Placement.Replicas != nil {
			// Re-validate: RunBatch is also a library entry point, so it
			// cannot assume DecodeBatch ran.
			if len(req.Placement.Replicas) != n {
				return nil, fmt.Errorf("placement: %d replica sets for %d items", len(req.Placement.Replicas), n)
			}
			if err := placement.CheckSets(req.Placement.Replicas, nb); err != nil {
				return nil, err
			}
			return req.Placement.Replicas, nil
		}
		if req.Placement.Strategy != "" {
			var err error
			if strat, err = parseStrategy(req.Placement.Strategy, nb); err != nil {
				return nil, err
			}
		}
	}
	placer := c.newStreamPlacer(strat)
	sets := make([][]int, n)
	for i := range req.Requests {
		sets[i] = placer.place(&req.Requests[i])
	}
	return sets, nil
}

// itemEstimate is the uncertain cost estimate of one work item: the
// summed estimated processing time of its instance. Actual cost is
// revealed only when a backend finishes the item — the cluster-level
// semi-clairvoyant model.
func itemEstimate(r *serve.ScheduleRequest) float64 {
	if r.Instance == nil {
		return 0
	}
	return r.Instance.TotalEstimate()
}

func argminLoad(loads []float64) int {
	best := 0
	for i, l := range loads {
		if l < loads[best] {
			best = i
		}
	}
	return best
}
