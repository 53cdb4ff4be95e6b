package experiments

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func init() {
	register("e11", "E11: open-system streaming — response times vs placement and cancellation policy", runE11)
}

// e11Variant is one (placement, cancellation policy) cell.
type e11Variant struct {
	label  string
	algo   algo.Algorithm
	policy sim.CancelPolicy
}

func e11Variants(m int) []e11Variant {
	// No-replication has singleton replica sets, so the two policies
	// coincide; it appears once as the baseline.
	return []e11Variant{
		{"no-replication", algo.LPTNoChoice(), sim.CancelOnStart},
		{fmt.Sprintf("group:%d + cancel-on-start", m/2), algo.LSGroup(m / 2), sim.CancelOnStart},
		{fmt.Sprintf("group:%d + cancel-on-completion", m/2), algo.LSGroup(m / 2), sim.CancelOnCompletion},
		{"all + cancel-on-start", algo.LPTNoRestriction(), sim.CancelOnStart},
		{"all + cancel-on-completion", algo.LPTNoRestriction(), sim.CancelOnCompletion},
	}
}

// e11Straggler returns the deterministic per-(task,machine) straggler
// model: a fraction of pairs run slowFactor times slower than the
// task's actual time. This is the machine-dependent service
// variability that makes racing replicas meaningful — and it is keyed
// only on (trial seed, task, machine), so every variant of a trial
// faces the identical straggler landscape.
func e11Straggler(in *task.Instance, seed uint64, prob, slowFactor float64) func(taskID, machine int) float64 {
	return func(taskID, machine int) float64 {
		d := in.Tasks[taskID].Actual
		h := rng.New(seed ^ (uint64(taskID)*0x9e3779b97f4a7c15 + uint64(machine)*0xbf58476d1ce4e5b9))
		if h.Float64() < prob {
			return d * slowFactor
		}
		return d
	}
}

// runE11 is the open-system streaming experiment: tasks arrive over
// time (Poisson and bursty MMPP processes), machines race replicas
// under the two cancellation policies, and the metric is the
// response-time distribution instead of makespan. It puts the paper's
// phase-1 placements into the setting of Wang/Joshi/Wornell
// (arXiv:1404.1328) and Sun/Koksal/Shroff (arXiv:1603.07322), whose
// predictions it checks: racing replicas with cancel-on-completion cut
// the tail when service times have machine-dependent stragglers and
// load is moderate, while cancel-on-start buys placement flexibility at
// zero waste; under bursty traffic the tail gap widens. The paper's
// theorems bound a closed batch's makespan, not response times, so no
// run here is bound-checked.
//
// (The ISSUE files this as "E10", but the e10 registry slot was taken
// by the fail-stop crash experiment, so it ships as e11.)
func runE11(w *Sink, opts Options) error {
	// Sized for what sim.Runner replays in seconds: thousands of
	// tasks per trial over a load grid fine enough to show where racing
	// stops paying (DESIGN.md, "Open-system flat engine").
	nTrials, n, m := 12, 2_400, 16
	ploads := []float64{0.15, 0.3, 0.5, 0.7}
	mloads := []float64{0.15, 0.5}
	if opts.Quick {
		nTrials, n, m = 3, 240, 8
		ploads = []float64{0.15, 0.5}
		mloads = []float64{0.15}
	}
	const (
		cancelCost = 0.5
		stragglerP = 0.2
		stragglerX = 4.0
	)

	type scenario struct {
		label   string
		process string
		load    float64 // arrival rate as a fraction of system capacity
	}
	scenarios := make([]scenario, 0, len(ploads)+len(mloads))
	for _, l := range ploads {
		scenarios = append(scenarios, scenario{fmt.Sprintf("poisson, load %.2g", l), "poisson", l})
	}
	for _, l := range mloads {
		scenarios = append(scenarios, scenario{fmt.Sprintf("mmpp (bursty), load %.2g", l), "mmpp", l})
	}
	variants := e11Variants(m)

	type cell struct {
		responses []float64
		wasted    float64
		busy      float64
		cancelled int
	}
	// Seeds per trial: workload, perturbation, arrivals, stragglers. A
	// trial yields one cell per (scenario, variant).
	outs, err := trials(rng.New(opts.Seed+1111), nTrials, 4, opts, func(t trial) ([][]cell, error) {
		// One flat runner per trial goroutine: every (scenario, variant)
		// run reuses its pooled buffers, and the trial fan-out already
		// saturates the cores, so the inner engine runs sequentially.
		var runner sim.Runner
		res := make([][]cell, len(scenarios))
		in := workload.MustNew(workload.Spec{
			Name: "uniform", N: n, M: m, Alpha: 1.5, Seed: t.seeds[0],
		})
		uncertainty.Uniform{}.Perturb(in, nil, rng.New(t.seeds[1]))
		meanActual := 0.0
		for _, tk := range in.Tasks {
			meanActual += tk.Actual
		}
		meanActual /= float64(n)
		dur := e11Straggler(in, t.seeds[3], stragglerP, stragglerX)

		for si, sc := range scenarios {
			res[si] = make([]cell, len(variants))
			// Rate λ = load · m / E[p]: the fraction of raw service
			// capacity the arrival stream demands (stragglers and racing
			// push the effective utilization higher).
			arrive, err := workload.Arrivals(n, workload.ArrivalSpec{
				Process: sc.process,
				Rate:    sc.load * float64(m) / meanActual,
				Seed:    t.seeds[2],
			})
			if err != nil {
				return nil, err
			}
			for vi, v := range variants {
				p, err := v.algo.Place(in)
				if err != nil {
					return nil, err
				}
				out, err := runner.RunOpenSharded(in, p, v.algo.Order(in), arrive, sim.OpenOptions{
					Policy:     v.policy,
					CancelCost: cancelCost,
					Duration:   dur,
				})
				if err != nil {
					return nil, err
				}
				c := &res[si][vi]
				c.responses = append([]float64(nil), out.Responses...)
				c.wasted = out.WastedTime
				c.cancelled = out.CancelledReplicas
				c.busy = out.Schedule.ComputeMetrics().TotalWork + out.WastedTime
			}
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "m=%d, n=%d per trial, α=1.5, %d trials; uniform workload with a\n", m, n, nTrials)
	fmt.Fprintf(w, "deterministic straggler model (%.0f%% of (task,machine) pairs run %.0fx\n",
		stragglerP*100, stragglerX)
	fmt.Fprintf(w, "slower); cancellation cost %.2g. Response time = completion − arrival.\n\n", cancelCost)

	for si, sc := range scenarios {
		pooled := make([][]float64, len(variants))
		wasted := make([]float64, len(variants))
		busy := make([]float64, len(variants))
		cancelled := make([]int, len(variants))
		for _, res := range outs {
			for vi := range variants {
				c := res[si][vi]
				pooled[vi] = append(pooled[vi], c.responses...)
				wasted[vi] += c.wasted
				busy[vi] += c.busy
				cancelled[vi] += c.cancelled
			}
		}
		fmt.Fprintf(w, "-- %s --\n", sc.label)
		tb := report.NewTable("placement + policy", "mean", "p50", "p99", "p999",
			"wasted %", "cancelled")
		for vi, v := range variants {
			s := stats.Summarize(pooled[vi])
			wastePct := 0.0
			if busy[vi] > 0 {
				wastePct = 100 * wasted[vi] / busy[vi]
			}
			tb.AddRow(v.label, s.Mean, s.P50, s.P99, s.P999,
				fmt.Sprintf("%.1f", wastePct), cancelled[vi])
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "Reading: replication with cancel-on-start shortens queueing (any")
	fmt.Fprintln(w, "group member may serve a task) at zero waste; group racing with")
	fmt.Fprintln(w, "cancel-on-completion additionally dodges stragglers, cutting")
	fmt.Fprintln(w, "p99/p999 at light load but paying in wasted machine time — an")
	fmt.Fprintln(w, "advantage that inverts as load approaches capacity, and racing on")
	fmt.Fprintln(w, "ALL machines saturates the system outright: exactly the")
	fmt.Fprintln(w, "load-dependent tradeoff the open-system replication literature")
	fmt.Fprintln(w, "predicts.")
	return nil
}
