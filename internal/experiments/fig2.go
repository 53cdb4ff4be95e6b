package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func init() { register("fig2", "Figure 2: replication in groups, m=6, k=2", runFig2) }

// runFig2 reproduces Figure 2: the two phases of replication in groups
// with m=6 machines and k=2 groups. Phase 1 assigns each task's data
// to one group; phase 2 schedules online within the group.
func runFig2(w *Sink, opts Options) error {
	seed := opts.Seed + 42
	in := workload.MustNew(workload.Spec{
		Name: "uniform", N: 12, M: 6, Alpha: 1.5, Seed: seed, Param: 10,
	})
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed+1))

	plan, err := core.NewPlan(in, core.Config{Strategy: core.Groups, Groups: 2})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Phase 1 — data placement (each task's data on every machine of one group):")
	tb := report.NewTable("task", "estimate", "group", "machines holding a replica")
	for j := range in.Tasks {
		g := plan.Placement.GroupOf[j]
		tb.AddRow(j, in.Tasks[j].Estimate, g, fmt.Sprintf("%v", plan.Placement.Sets[j]))
	}
	if err := tb.Render(w); err != nil {
		return err
	}

	out, err := plan.Execute(in)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nPhase 2 — online list scheduling within each group")
	fmt.Fprintln(w, "(machines 0-2 are group 0, machines 3-5 are group 1):")
	fmt.Fprint(w, out.Schedule.Gantt(60))
	fmt.Fprintf(w, "\nmakespan = %.4g, replicas per task = %d (= m/k), guarantee = %.4g\n",
		out.Makespan, out.ReplicasPerTask, out.Guarantee)
	return nil
}
