package experiments

import (
	"errors"
	"fmt"

	"repro/internal/algo"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/tick"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func init() {
	register("e10", "E10: fail-stop crashes — survivability and makespan vs replication", runE10)
}

// runE10 exercises the Hadoop motivation: replicas exist for fault
// tolerance, and the same replicas buy scheduling freedom. A machine
// fail-stops mid-run (losing its in-flight task); we measure the
// makespan inflation per replication level and how often the workload
// is unsurvivable (some task's only replica died).
func runE10(w *Sink, opts Options) error {
	nTrials, n, m := 20, 120, 8
	if opts.Quick {
		nTrials, n, m = 4, 48, 4
	}

	variants := []struct {
		label string
		algo  algo.Algorithm
	}{
		{"no-replication", algo.LPTNoChoice()},
		{"groups k=m/2 (2 replicas)", algo.LSGroup(m / 2)},
		{"groups k=2", algo.LSGroup(2)},
		{"everywhere", algo.LPTNoRestriction()},
	}

	type cell struct {
		healthy  float64
		slowdown float64
		lost     bool
	}
	// Seeds per trial: workload, perturbation, the machine that crashes.
	// A trial yields one cell per variant.
	outs, err := trials(rng.New(opts.Seed+1010), nTrials, 3, opts, func(t trial) ([]cell, error) {
		in := workload.MustNew(workload.Spec{
			Name: "uniform", N: n, M: m, Alpha: 1.5, Seed: t.seeds[0],
		})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(t.seeds[1]))
		failMachine := int(t.seeds[2] % uint64(m)) // rng.Source.Intn(m) of that draw
		_, ub := bracket(in)

		res := make([]cell, len(variants))
		for vi, v := range variants {
			p, err := v.algo.Place(in)
			if err != nil {
				return nil, err
			}
			order := v.algo.Order(in)

			healthy, err := sim.RunFlatSharded(in, p, order, sim.FlatOptions{})
			if err != nil {
				return nil, err
			}
			healthyMakespan := healthy.Schedule.Makespan()
			if err := t.bounded(v.algo, in, in.Alpha, healthyMakespan, ub); err != nil {
				return nil, err
			}
			res[vi].healthy = healthyMakespan

			// Crash mid-run: halfway through the healthy makespan. The
			// theorems assume no failures, so the bound is not checked;
			// fail-stop is: a survived crash leaves a valid schedule with
			// nothing on the dead machine ending after the crash.
			crash := sim.Failure{Machine: failMachine, Time: healthyMakespan / 2}
			crashed, err := sim.RunFlatSharded(in, p, order, sim.FlatOptions{Failures: []sim.Failure{crash}})
			switch {
			case errors.Is(err, sim.ErrUnsurvivable):
				res[vi].lost = true
			case err != nil:
				return nil, err
			default:
				if err := t.failStopped(crashed.Schedule, in, p, crash); err != nil {
					return nil, err
				}
				res[vi].slowdown = crashed.Schedule.Makespan() / healthyMakespan
			}
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	tb := report.NewTable("placement", "healthy makespan",
		"crash slowdown (mean)", "crash slowdown (p90)", "unsurvivable")
	for vi, v := range variants {
		var degraded []float64
		lost := 0
		for _, o := range outs {
			if o[vi].lost {
				lost++
			} else {
				degraded = append(degraded, o[vi].slowdown)
			}
		}
		h := column(outs, func(o []cell) float64 { return o[vi].healthy })
		d := stats.Summarize(degraded)
		tb.AddRow(v.label, h.Mean, d.Mean, d.P90, fmt.Sprintf("%d/%d", lost, nTrials))
	}
	fmt.Fprintf(w, "m=%d, n=%d, α=1.5; one machine fail-stops halfway through the run;\n", m, n)
	fmt.Fprintf(w, "%d trials. Slowdown = crashed makespan / healthy makespan.\n", nTrials)
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Reading: without replication a crash is fatal (the dead machine's")
	fmt.Fprintln(w, "pending data is unreachable); with group replication every crash is")
	fmt.Fprintln(w, "survived and the slowdown shrinks as the surviving group members")
	fmt.Fprintln(w, "absorb the orphaned tasks — the dual use of replicas the paper's")
	fmt.Fprintln(w, "introduction points at.")
	return nil
}

// failStopped checks a run that survived crash c: its schedule is valid
// for the placement, and no task on the crashed machine ends after the
// crash. The error names the trial's seeds.
func (t trial) failStopped(s *sched.Schedule, in *task.Instance, p *placement.Placement, c sim.Failure) error {
	if err := s.Verify(in, p); err != nil {
		return fmt.Errorf("experiments: crashed run: %w (trial %d, seeds %v)", err, t.index, t.seeds)
	}
	at, err := tick.FromSeconds(c.Time)
	if err != nil {
		return fmt.Errorf("experiments: crash time: %w", err)
	}
	for j, a := range s.Assignments {
		if a.Machine == c.Machine && a.End > at {
			return fmt.Errorf("experiments: task %d ends at %v on machine %d, which crashed at %v (trial %d, seeds %v)",
				j, a.End.Seconds(), c.Machine, c.Time, t.index, t.seeds)
		}
	}
	return nil
}
