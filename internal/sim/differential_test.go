package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// TestEventSimulatorMatchesReference sweeps random seeds, placement
// styles and priority orders: the engine's event heap and the oracle's
// clock scan must agree on every assignment (continuous durations, so
// times within the quantization bound).
func TestEventSimulatorMatchesReference(t *testing.T) {
	f := func(seed uint64, kRaw, orderKind uint8) bool {
		const m = 6
		in := workload.MustNew(workload.Spec{Name: "zipf", N: 40, M: m, Alpha: 1.8, Seed: seed})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed^1))

		// Random placement style: groups, everywhere, or singletons.
		var p *placement.Placement
		switch kRaw % 3 {
		case 0:
			p = placement.Everywhere(in.N(), m)
		case 1:
			p = placement.New(in.N(), m)
			src := rng.New(seed ^ 2)
			for j := 0; j < in.N(); j++ {
				p.Assign(j, src.Intn(m))
			}
		default:
			groups, err := placement.PartitionGroups(m, 3)
			if err != nil {
				return false
			}
			p = placement.New(in.N(), m)
			p.Groups = groups
			p.GroupOf = make([]int, in.N())
			for j := 0; j < in.N(); j++ {
				g := j % 3
				p.GroupOf[j] = g
				p.Sets[j] = groups[g]
			}
		}

		order := make([]int, in.N())
		for i := range order {
			order[i] = i
		}
		if orderKind%2 == 0 {
			sort.SliceStable(order, func(a, b int) bool {
				return in.Tasks[order[a]].Estimate > in.Tasks[order[b]].Estimate
			})
		}

		eventRes, err := RunFlatSharded(in, p, order, FlatOptions{})
		if err != nil {
			return false
		}
		requireCloseSchedule(t, fmt.Sprintf("seed %d, style %d", seed, kRaw%3), in.N(), eventRes.Schedule,
			oracleRun(in, p, order, FlatOptions{}).Schedule)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
