package experiments

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/memaware"
	"repro/internal/opt"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func init() {
	register("e3", "E3: empirical memory–makespan Pareto fronts (SABO_Δ / GABO_Δ / ABO_Δ)", runE3)
}

// runE3 measures the empirical memory–makespan Pareto front of the
// bi-objective algorithms: Figure 6 plots guarantees; this experiment
// plots measured (memory ratio, makespan ratio) pairs as Δ sweeps, on
// the paper's motivating out-of-core workload. Besides the paper's
// SABO_Δ and ABO_Δ it includes the GABO_Δ extension (time-intensive
// tasks replicated within k groups instead of everywhere), which
// traces an intermediate front.
func runE3(w *Sink, opts Options) error {
	nTrials := 8
	deltas := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
	if opts.Quick {
		nTrials = 2
		deltas = []float64{0.25, 1, 4}
	}
	const m, n, gaboK, alpha = 6, 72, 3, 2.0

	// ρ1 = ρ2 of the default LPT reference mappings, which all three
	// variants combine.
	rho := bounds.LPTOffline(m)
	variants := []struct {
		name string
		run  func(*task.Instance, memaware.Config) (*memaware.Result, error)
		// proved is the (makespan, memory) guarantee pair at Δ; nil for
		// the extension the paper has no theorem for.
		proved func(delta float64) (makespan, memory float64)
	}{
		{"SABO", memaware.SABO, func(d float64) (float64, float64) {
			return bounds.SABOMakespan(alpha, d, rho), bounds.SABOMemory(d, rho)
		}},
		{fmt.Sprintf("GABO(k=%d)", gaboK), func(in *task.Instance, cfg memaware.Config) (*memaware.Result, error) {
			return memaware.GABO(in, cfg, gaboK)
		}, nil},
		{"ABO", memaware.ABO, func(d float64) (float64, float64) {
			return bounds.ABOMakespan(m, alpha, d, rho), bounds.ABOMemory(m, d, rho)
		}},
	}

	type point struct{ mem, mk float64 }
	// Seeds per trial: workload, perturbation. A trial yields one point
	// per (delta, variant).
	outs, err := trials(rng.New(opts.Seed+303), nTrials, 2, opts, func(t trial) ([][]point, error) {
		in := workload.MustNew(workload.Spec{
			Name: "spmv", N: n, M: m, Alpha: alpha, Seed: t.seeds[0],
		})
		uncertainty.Extremes{}.Perturb(in, nil, rng.New(t.seeds[1]))
		// The two single-objective optima are independent solver calls:
		// the memory one solves beside the makespan one.
		memory := opt.StartEstimate(in.Sizes(), m, 0)
		defer memory.Wait()
		optMakespan := opt.Estimate(in.Actuals(), m, 0)
		optMemory := memory.Wait()
		res := make([][]point, len(deltas))
		for di, d := range deltas {
			res[di] = make([]point, len(variants))
			for vi, v := range variants {
				r, err := v.run(in, memaware.Config{Delta: d})
				if err != nil {
					return nil, err
				}
				if v.proved != nil {
					makespan, memory := v.proved(d)
					if err := t.holds(v.name+" makespan", r.Makespan, makespan, optMakespan.Upper); err != nil {
						return nil, err
					}
					if err := t.holds(v.name+" memory", r.MemMax, memory, optMemory.Upper); err != nil {
						return nil, err
					}
				}
				res[di][vi] = point{mem: r.MemMax / optMemory.Lower, mk: r.Makespan / optMakespan.Lower}
			}
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	tb := report.NewTable("delta",
		"SABO mem ratio", "SABO mk ratio",
		"GABO mem ratio", "GABO mk ratio",
		"ABO mem ratio", "ABO mk ratio")
	series := make([]bounds.Series, len(variants))
	for vi, v := range variants {
		series[vi].Name = v.name + "-measured"
	}
	for di, d := range deltas {
		row := []any{d}
		for vi := range variants {
			mem := column(outs, func(o [][]point) float64 { return o[di][vi].mem }).Mean
			mk := column(outs, func(o [][]point) float64 { return o[di][vi].mk }).Mean
			row = append(row, mem, mk)
			series[vi].Points = append(series[vi].Points, bounds.Point{X: mem, Y: mk})
		}
		tb.AddRow(row...)
	}
	fmt.Fprintf(w, "m=%d, n=%d spmv tasks, α=2 extremes noise, %d trials; ratios vs\n",
		m, n, nTrials)
	fmt.Fprintln(w, "single-objective optimum lower bounds. GABO replicates time-intensive")
	fmt.Fprintf(w, "tasks within k=%d groups (%d replicas) — an extension of the paper.\n", gaboK, m/gaboK)
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Plot(w, series,
		report.PlotOptions{
			Title:  "measured memory–makespan tradeoff",
			XLabel: "Mem_max / Mem*",
			YLabel: "C_max / C*",
			Width:  64, Height: 14,
		}); err != nil {
		return err
	}
	fmt.Fprintln(w, "Expected shape: all fronts slope down (memory buys makespan); ABO")
	fmt.Fprintln(w, "reaches the lowest makespans, SABO the lowest memory, GABO between.")
	return nil
}
