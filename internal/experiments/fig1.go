package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/report"
)

func init() { register("fig1", "Figure 1: Theorem 1 adversary instance (λ=3, m=6)", runFig1) }

// runFig1 reproduces Figure 1: the instance the Theorem 1 adversary
// builds (λ=3, m=6). It executes the blind no-replication schedule
// and the clairvoyant redistribution side by side, and sweeps λ to
// show the certified ratio converging to α²m/(α²+m−1).
func runFig1(w *Sink, opts Options) error {
	const lambda, m = 3, 6
	alpha := 2.0

	in, err := adversary.Theorem1Instance(lambda, m, alpha)
	if err != nil {
		return err
	}
	plan, err := core.NewPlan(in, core.Config{Strategy: core.NoReplication})
	if err != nil {
		return err
	}
	if err := adversary.Apply(in, plan.Placement); err != nil {
		return err
	}
	out, err := plan.Execute(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Instance: %d unit-estimate tasks, m=%d, α=%g.\n", lambda*m, m, alpha)
	fmt.Fprintf(w, "Adversary inflated %d tasks (the most loaded machine) to α and\n",
		adversary.InflatedCount(in))
	fmt.Fprintf(w, "deflated the rest to 1/α.\n\n")

	fmt.Fprintln(w, "Online (blind) schedule — the adversary's victim:")
	fmt.Fprint(w, out.Schedule.Gantt(60))
	fmt.Fprintf(w, "makespan = %.4g\n\n", out.Makespan)

	oracle, err := algo.Execute(in, algo.OracleLPT())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Offline optimal redistribution (clairvoyant LPT):")
	fmt.Fprint(w, oracle.Schedule.Gantt(60))
	fmt.Fprintf(w, "makespan = %.4g\n\n", oracle.Makespan)

	star, ok := opt.Exact(in.Actuals(), m, 50_000_000)
	if !ok {
		star = oracle.Makespan
	}
	fmt.Fprintf(w, "measured ratio C/C*          = %.4g\n", out.Makespan/star)
	fmt.Fprintf(w, "certified by proof (λ=3)     = %.4g\n", adversary.Theorem1Ratio(lambda, m, lambda, alpha))
	fmt.Fprintf(w, "Theorem 1 bound (λ→∞)        = %.4g\n", bounds.LowerBoundNoReplication(m, alpha))
	fmt.Fprintf(w, "Theorem 2 upper bound        = %.4g\n\n", bounds.LPTNoChoice(m, alpha))

	lambdas := []int{1, 2, 3, 5, 10, 30, 100}
	if opts.Quick {
		lambdas = []int{1, 3, 10}
	}
	tb := report.NewTable("lambda", "certified ratio", "Th.1 bound")
	for _, l := range lambdas {
		tb.AddRow(l, adversary.Theorem1Ratio(l, m, l, alpha), bounds.LowerBoundNoReplication(m, alpha))
	}
	fmt.Fprintln(w, "Certified ratio as λ grows (converges to the Theorem 1 bound):")
	return tb.Render(w)
}
