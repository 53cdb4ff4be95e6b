package experiments

import (
	"fmt"
	"io"

	"repro/internal/memaware"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
)

func init() {
	register("fig4", "Figure 4: SABO_Δ two-phase schedule example (m=4, Δ=1)", runFig4)
	register("fig5", "Figure 5: ABO_Δ schedule example with replicated LS tail (m=4, Δ=1)", runFig5)
}

// memExampleInstance builds the small mixed instance used by the
// Figure 4/5 schedule examples: a few compute-heavy tasks, a few
// memory-heavy ones, and a middle ground.
func memExampleInstance(seed uint64) (*task.Instance, error) {
	est := []float64{9, 8, 7, 3, 2.5, 2, 1.5, 1, 1, 0.5}
	sizes := []float64{1, 1, 2, 6, 7, 8, 3, 9, 2, 10}
	in, err := task.NewEstimated(4, 1.4, est)
	if err != nil {
		return nil, err
	}
	if err := in.SetSizes(sizes); err != nil {
		return nil, err
	}
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(seed+7))
	return in, nil
}

func renderMemResult(w io.Writer, in *task.Instance, res *memaware.Result) error {
	fmt.Fprintf(w, "S1 (time-intensive)   = %v\n", res.TimeIntensive)
	fmt.Fprintf(w, "S2 (memory-intensive) = %v\n\n", res.MemoryIntensive)
	fmt.Fprint(w, res.Schedule.Gantt(60))
	fmt.Fprintf(w, "\nmakespan = %.4g, Mem_max = %.4g\n", res.Makespan, res.MemMax)
	tb := report.NewTable("machine", "load (actual time)", "memory occupied")
	loads := res.Schedule.Loads()
	mems := res.Placement.MemoryLoads(in)
	for i := 0; i < in.M; i++ {
		tb.AddRow(i, loads[i], mems[i])
	}
	return tb.Render(w)
}

// runFig4 reproduces Figure 4: an example SABO_Δ schedule. Memory-
// intensive tasks follow the memory schedule π2; the rest follow the
// makespan schedule π1; nothing is replicated.
func runFig4(w *Sink, opts Options) error {
	in, err := memExampleInstance(opts.Seed)
	if err != nil {
		return err
	}
	res, err := memaware.SABO(in, memaware.Config{Delta: 1})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Tasks with p̃_j/C̃^π1 ≤ Δ·s_j/Mem^π2 are pinned per the memory")
	fmt.Fprintln(w, "schedule π2 (paper's uncolored tasks); the rest per the makespan")
	fmt.Fprintln(w, "schedule π1 (colored tasks). No replication.")
	return renderMemResult(w, in, res)
}

// runFig5 reproduces Figure 5: an example ABO_Δ schedule. Memory-
// intensive tasks are pinned per π2; time-intensive tasks are
// replicated everywhere and picked up by online List Scheduling as
// machines drain their pinned queues.
func runFig5(w *Sink, opts Options) error {
	in, err := memExampleInstance(opts.Seed)
	if err != nil {
		return err
	}
	res, err := memaware.ABO(in, memaware.Config{Delta: 1})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Memory-intensive tasks (uncolored in the paper) respect their π2")
	fmt.Fprintln(w, "machines; time-intensive tasks are replicated on all machines and")
	fmt.Fprintln(w, "scheduled by Graham's LS when machines become idle.")
	return renderMemResult(w, in, res)
}
