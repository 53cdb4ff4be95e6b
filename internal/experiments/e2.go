package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func init() { register("e2", "E2: guarantee validation against exact optima", runE2) }

// runE2 validates every proved guarantee against exact optima: on
// small instances (exact branch-and-bound C*), across a grid of machine
// counts and uncertainty factors and across perturbation models, the
// measured competitive ratio must never exceed the theorem's bound.
// The report shows the worst observed ratio and the margin to the
// bound per (strategy, m, α) cell. The check is the one every
// experiment runs (trial.scored), here against C* itself; any
// violation fails the experiment with a non-zero exit.
func runE2(w *Sink, opts Options) error {
	nTrials := 25
	grid := []struct {
		m     int
		alpha float64
	}{
		{3, 1.2}, {4, 1.5}, {4, 2.0}, {6, 1.5},
	}
	if opts.Quick {
		nTrials = 5
		grid = grid[1:2] // just (m=4, α=1.5)
	}
	const n = 13
	src := rng.New(opts.Seed + 202)

	models := []uncertainty.Model{
		uncertainty.Uniform{},
		uncertainty.Extremes{},
		uncertainty.LoadedMachineAdversary{},
	}

	tb := report.NewTable("m", "alpha", "strategy", "guarantee",
		"worst measured", "margin", "samples")
	for _, cell := range grid {
		cfgs := []core.Config{
			{Strategy: core.NoReplication, ExactLimit: n},
			{Strategy: core.ReplicateEverywhere, ExactLimit: n},
			{Strategy: core.BaselineLS, ExactLimit: n},
		}
		if cell.m%2 == 0 {
			cfgs = append(cfgs, core.Config{Strategy: core.Groups, Groups: 2, ExactLimit: n})
		}
		type tally struct { // indexed as cfgs
			worst []float64
			valid []int
		}
		// Seeds per trial: the workload, then one perturbation stream
		// per model.
		outs, err := trials(rng.New(src.Uint64()), nTrials, 1+len(models), opts, func(t trial) (tally, error) {
			res := tally{worst: make([]float64, len(cfgs)), valid: make([]int, len(cfgs))}
			runner := getRunner()
			defer putRunner(runner)
			base := workload.MustNew(workload.Spec{
				Name: "uniform", N: n, M: cell.m, Alpha: cell.alpha,
				Seed: t.seeds[0], Param: 20,
			})
			for mi, model := range models {
				in := base.Clone()
				model.Perturb(in, nil, rng.New(t.seeds[1+mi]))
				for ci, cfg := range cfgs {
					out, err := runner.Run(in, cfg)
					if err != nil {
						return res, err
					}
					if err := t.scored(out); err != nil {
						return res, err
					}
					if !out.Optimum.Exact {
						continue
					}
					res.valid[ci]++
					res.worst[ci] = max(res.worst[ci], out.RatioUpper)
				}
			}
			return res, nil
		})
		if err != nil {
			return err
		}
		for ci, cfg := range cfgs {
			worst, valid := 0.0, 0
			for _, o := range outs {
				worst = max(worst, o.worst[ci])
				valid += o.valid[ci]
			}
			g := cfg.Guarantee(cell.m, cell.alpha)
			tb.AddRow(cell.m, cell.alpha, cfg.Strategy.String(), g, worst, g-worst, valid)
		}
	}

	fmt.Fprintf(w, "n=%d tasks; %d trials × %d perturbation models per cell; exact C*.\n",
		n, nTrials, len(models))
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nPASS: no measured ratio exceeded its proved guarantee.")
	return nil
}
