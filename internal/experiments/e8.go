package experiments

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/workload"
)

func init() {
	register("e8", "E8: failure injection — perturbations beyond the declared α", runE8)
}

// runE8 is a failure-injection experiment: what happens when reality
// violates the model? The scheduler is told α, but the actual
// perturbations are drawn with a *true* factor β ≥ α, so Equation 1
// no longer holds at α. The guarantees at the declared α are void in
// that regime; the question is whether the algorithms degrade
// gracefully (ratios grow smoothly with β/α) or fall off a cliff — the
// kind of robustness information a deployment needs. What the theorems
// still promise is checked: they quantify over any α covering the
// actual times, so every run must respect its bound at the realised
// α̂ = max_j max(p_j/p̃_j, p̃_j/p_j) (the mis-estimated uncertainty
// parameter of Cohen, arXiv:2012.06433, as a checkable property).
func runE8(w *Sink, opts Options) error {
	nTrials, n, m := 15, 120, 8
	if opts.Quick {
		nTrials, n, m = 3, 48, 4
	}
	declared := 1.5
	betas := []float64{1.5, 2, 3, 4.5, 6}
	if opts.Quick {
		betas = []float64{1.5, 3, 6}
	}
	src := rng.New(opts.Seed + 808)

	algos := []algo.Algorithm{
		algo.LPTNoChoice(),
		algo.LSGroup(2),
		algo.LPTNoRestriction(),
	}
	tb := report.NewTable("true β", "β/α", "LPT-NoChoice", "LS-Group k=2", "LPT-NoRestriction")
	for _, beta := range betas {
		// Seeds per trial: workload, perturbation. A trial yields one
		// ratio per algorithm.
		outs, err := trials(rng.New(src.Uint64()), nTrials, 2, opts, func(t trial) ([]float64, error) {
			scratch := getScratch()
			defer putScratch(scratch)
			in := workload.MustNew(workload.Spec{
				// The instance still declares α to the scheduler...
				Name: "uniform", N: n, M: m, Alpha: declared, Seed: t.seeds[0],
			})
			// ...but the world perturbs with factor β. Bypass the model
			// validator on purpose: this experiment injects the violation.
			realised := perturbBeyond(in, beta, rng.New(t.seeds[1]))
			lb, ub := bracket(in)
			ratios := make([]float64, len(algos))
			for ai, a := range algos {
				r, err := scratch.Execute(in, a)
				if err != nil {
					return nil, err
				}
				if err := t.bounded(a, in, realised, r.Makespan, ub); err != nil {
					return nil, err
				}
				ratios[ai] = r.Makespan / lb
			}
			return ratios, nil
		})
		if err != nil {
			return err
		}
		row := []any{beta, beta / declared}
		for ai := range algos {
			row = append(row, column(outs, func(o []float64) float64 { return o[ai] }).Mean)
		}
		tb.AddRow(row...)
	}
	fmt.Fprintf(w, "Scheduler believes α=%g; actual factors drawn log-uniformly in\n", declared)
	fmt.Fprintln(w, "[1/β, β]. Mean C_max/C*_lb over", nTrials, "trials:")
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Reading: degradation is smooth in β/α for all strategies, and the")
	fmt.Fprintln(w, "replication ordering (more replicas → lower ratio) is preserved even")
	fmt.Fprintln(w, "outside the proved regime — the algorithms never consult α at run")
	fmt.Fprintln(w, "time, only the analysis does.")
	return nil
}

// perturbBeyond redraws the actual times with factor beta, which may
// exceed the instance's declared Alpha, and returns the realised α̂,
// the smallest factor that covers every redrawn time. Used only by
// this experiment.
func perturbBeyond(in *task.Instance, beta float64, src *rng.Source) (realised float64) {
	realised = 1
	for j := range in.Tasks {
		f := src.BoundedFactor(beta)
		in.Tasks[j].Actual = in.Tasks[j].Estimate * f
		realised = max(realised, f, 1/f)
	}
	return realised
}
