package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/placement"
	"repro/internal/proxy"
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

// replicas is the cluster's phase 1 over nb backends: the configured
// strategy, and the one placer of full replication, whose set of every
// backend all its items share.
type replicas struct {
	nb         int
	strat      strategy
	everywhere proxy.Placer
}

func newReplicas(strat string, nb int) (*replicas, error) {
	s, err := parseStrategy(strat, nb)
	if err != nil {
		return nil, err
	}
	all := make([]int, nb)
	for i := range all {
		all[i] = i
	}
	return &replicas{nb: nb, strat: s, everywhere: func(int, *serve.ScheduleRequest) []int { return all }}, nil
}

// place is the Policy's Place: the replica sets of one request. An
// explicit override (Replicas[i] lists the backends allowed to run item
// i, sorted ascending without duplicates — the structural rules
// placement.CheckSets enforces for machines) wins, then a request
// strategy, then the configured one. A strategy is placed online, so a
// batch and a stream of the same items place alike: for "none" and
// "group:k" the greedy least-loaded rule over the running estimated
// load per choice — the semi-clairvoyant analogue of the paper's
// placements, on the only cost signal available before execution —
// ties to the lowest index, so identical batches place identically
// (the metamorphic tests rely on it).
func (r *replicas) place(spec *proxy.PlacementSpec, n int) (proxy.Placer, error) {
	strat := r.strat
	if spec != nil {
		switch {
		case spec.Strategy != "" && spec.Replicas != nil:
			return nil, errors.New("placement: strategy and replicas are mutually exclusive")
		case spec.Replicas != nil:
			if len(spec.Replicas) != n {
				return nil, fmt.Errorf("placement: %d replica sets for %d items", len(spec.Replicas), n)
			}
			if err := placement.CheckSets(spec.Replicas, r.nb); err != nil {
				return nil, err
			}
			return func(i int, _ *serve.ScheduleRequest) []int { return spec.Replicas[i] }, nil
		case spec.Strategy == "":
			return nil, errors.New("placement: empty spec (set strategy or replicas)")
		}
		var err error
		if strat, err = parseStrategy(spec.Strategy, r.nb); err != nil {
			return nil, err
		}
	}
	switch strat.kind {
	case stratNone:
		loads := make([]float64, r.nb)
		return func(_ int, req *serve.ScheduleRequest) []int {
			best := argminLoad(loads)
			loads[best] += itemEstimate(req)
			return []int{best}
		}, nil
	case stratGroup:
		loads := make([]float64, len(strat.groups))
		return func(_ int, req *serve.ScheduleRequest) []int {
			g := argminLoad(loads)
			loads[g] += itemEstimate(req)
			return strat.groups[g]
		}, nil
	default:
		return r.everywhere, nil
	}
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
