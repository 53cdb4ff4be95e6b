package experiments

import (
	"fmt"
	"io"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func init() {
	register("e1", "E1: empirical competitive ratio vs replication degree", runE1)
}

// runE1 measures what Figure 3 proves: the empirical competitive ratio
// of LS-Group as the replication degree m/k sweeps from 1 (no
// replication) to m (everywhere), under both random and adversarial
// perturbations. The guarantee curve's *shape* — monotone improvement
// with replication, most of the gain from the first few replicas —
// must show up in the measurements. The measured and analytic series
// (X = replicas per task, Y = mean ratio) also go out as e1.csv and
// e1.svg.
func runE1(w *Sink, opts Options) error {
	// Full mode uses the paper's machine count (Figure 3: m=210).
	m, n, nTrials, alpha := 210, 2100, 8, 2.0
	if opts.Quick {
		m, n, nTrials = 12, 120, 3
	}
	ks := bounds.Divisors(m)

	type ratios struct{ uniform, advers []float64 } // indexed as ks
	// Seeds per trial: the workload, then one perturbation per k.
	outs, err := trials(rng.New(opts.Seed+101), nTrials, 1+len(ks), opts, func(t trial) (ratios, error) {
		res := ratios{uniform: make([]float64, len(ks)), advers: make([]float64, len(ks))}
		runner := getRunner()
		defer putRunner(runner)
		base := workload.MustNew(workload.Spec{
			Name: "iterative", N: n, M: m, Alpha: alpha, Seed: t.seeds[0],
		})
		for ki, k := range ks {
			cfg := core.Config{Strategy: core.Groups, Groups: k}

			// Random symmetric perturbation.
			inU := base.Clone()
			uncertainty.Uniform{}.Perturb(inU, nil, rng.New(t.seeds[1+ki]))
			outU, err := runner.Run(inU, cfg)
			if err != nil {
				return res, err
			}
			if err := t.scored(outU); err != nil {
				return res, err
			}
			res.uniform[ki] = outU.RatioUpper

			// Placement-aware adversary: inflate the most loaded group.
			inA := base.Clone()
			plan, err := core.NewPlan(inA, cfg)
			if err != nil {
				return res, err
			}
			if err := adversary.ApplyToGroups(inA, plan.Placement); err != nil {
				return res, err
			}
			outA, err := runner.Execute(plan, inA)
			if err != nil {
				return res, err
			}
			if err := t.scored(outA); err != nil {
				return res, err
			}
			res.advers[ki] = outA.RatioUpper
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	series := []bounds.Series{{Name: "measured-uniform"}, {Name: "measured-adversary"}, {Name: "guarantee"}}
	for i := len(ks) - 1; i >= 0; i-- { // ascending replicas
		r := float64(m / ks[i])
		for si, y := range []float64{
			column(outs, func(o ratios) float64 { return o.uniform[i] }).Mean,
			column(outs, func(o ratios) float64 { return o.advers[i] }).Mean,
			bounds.LSGroup(m, ks[i], alpha),
		} {
			series[si].Points = append(series[si].Points, bounds.Point{X: r, Y: y})
		}
	}
	w.attach("e1.csv", func(w io.Writer) error {
		tb := report.NewTable("series", "replicas", "ratio")
		for _, s := range series {
			for _, pt := range s.Points {
				tb.AddRow(s.Name, pt.X, pt.Y)
			}
		}
		return tb.WriteCSV(w)
	})
	w.attach("e1.svg", func(w io.Writer) error {
		return report.WriteSVGPlot(w, series, report.SVGPlotOptions{
			Title:  fmt.Sprintf("E1: measured ratio vs replication (m=%d, alpha=%g)", m, alpha),
			XLabel: "replicas per task (m/k)",
			YLabel: "C_max / C*_lb",
			LogX:   true,
		})
	})

	tb := report.NewTable("replicas (m/k)", "k", "ratio (uniform)", "ratio (adversary)",
		"guarantee (Th.4)")
	for i, pt := range series[0].Points {
		r := int(pt.X)
		tb.AddRow(r, m/r, pt.Y, series[1].Points[i].Y, series[2].Points[i].Y)
	}
	fmt.Fprintf(w, "m=%d, n=%d, α=%g, %d trials; ratios are C_max over the best C* lower bound\n",
		m, n, alpha, nTrials)
	fmt.Fprintln(w, "(pessimistic: the true competitive ratio is at most the printed value).")
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Plot(w, series, report.PlotOptions{
		Title:  "empirical ratio vs replication",
		XLabel: "replicas per task, log scale",
		YLabel: "C_max / C*_lb",
		LogX:   true,
		Width:  64, Height: 14,
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "Expected shape: adversary ratios fall sharply with the first few")
	fmt.Fprintln(w, "replicas and stay below the Theorem 4 guarantee everywhere.")
	return nil
}
