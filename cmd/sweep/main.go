// Command sweep runs parameter sweeps over the model's knobs and
// emits CSV, for plotting with external tools.
//
// Modes:
//
//	ratio  — guarantee curves vs replication for a list of α values
//	         (the data behind Figure 3, for any m)
//	memory — SABO/ABO guarantee curves vs Δ (the data behind Figure 6)
//	emp    — measured makespan of each strategy as α sweeps, on a
//	         random workload (end-to-end pipeline)
//
// In emp mode the trials of each (α, strategy) cell fan out through
// experiments.Trials, the seed → fan-out helper every experiment uses,
// so the CSV is byte-identical regardless of -workers. Profiling flags
// mirror cmd/paperfigs: -cpuprofile, -memprofile, and -stats (internal
// counters to stderr).
//
// Examples:
//
//	sweep -mode ratio -m 210 -alphas 1.1,1.5,2 > fig3.csv
//	sweep -mode memory -m 5 -alpha2 3 -rho 1 > fig6b.csv
//	sweep -mode emp -m 12 -n 240 -alphas 1,1.25,1.5,2,3 > emp.csv
//	sweep -mode emp -m 12 -trials 50 -stats -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func main() {
	var (
		mode       = flag.String("mode", "ratio", "ratio | memory | emp")
		m          = flag.Int("m", 210, "number of machines")
		n          = flag.Int("n", 0, "tasks (emp mode; 0 = 10·m)")
		alphas     = flag.String("alphas", "1.1,1.5,2", "comma-separated α list")
		alpha2     = flag.Float64("alpha2", 2, "α² (memory mode)")
		rho        = flag.Float64("rho", 4.0/3, "ρ1 = ρ2 (memory mode)")
		trials     = flag.Int("trials", 5, "trials per point (emp mode)")
		seed       = flag.Uint64("seed", 1, "RNG seed (emp mode)")
		wl         = flag.String("workload", "iterative", "workload generator (emp mode)")
		workers    = flag.Int("workers", 0, "max concurrent trials in emp mode (0 = GOMAXPROCS, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write CPU profile to file")
		memprofile = flag.String("memprofile", "", "write heap profile to file on exit")
		statsFlag  = flag.Bool("stats", false, "print internal counters and timers to stderr on exit")
	)
	flag.Parse()

	prof := obs.Profile{Prog: "sweep", CPU: *cpuprofile, Mem: *memprofile, Stats: *statsFlag}
	err := prof.Run(os.Stderr, func() error {
		return run(os.Stdout, *mode, *m, *n, *alphas, *alpha2, *rho, *trials, *seed, *wl, *workers)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func parseAlphas(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad alpha %q: %w", part, err)
		}
		// Centralized parameter check (same error every entry point uses).
		if err := task.CheckAlpha(v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty alpha list")
	}
	return out, nil
}

func run(w io.Writer, mode string, m, n int, alphaList string, alpha2, rho float64,
	trials int, seed uint64, wl string, workers int) error {
	switch mode {
	case "ratio":
		alphas, err := parseAlphas(alphaList)
		if err != nil {
			return err
		}
		tb := report.NewTable("alpha", "series", "replicas", "guarantee")
		for _, alpha := range alphas {
			if err := bounds.Validate(m, 0, alpha); err != nil {
				return err
			}
			for _, s := range bounds.RatioReplication(m, alpha) {
				for _, pt := range s.Points {
					tb.AddRow(alpha, s.Name, pt.X, pt.Y)
				}
			}
		}
		return tb.WriteCSV(w)

	case "memory":
		tb := report.NewTable("series", "memory_guarantee", "makespan_guarantee")
		deltas := bounds.DefaultDeltaGrid()
		for _, s := range bounds.MemoryMakespan(m, alpha2, rho, rho, deltas) {
			for _, pt := range s.Points {
				tb.AddRow(s.Name, pt.X, pt.Y)
			}
		}
		return tb.WriteCSV(w)

	case "emp":
		alphas, err := parseAlphas(alphaList)
		if err != nil {
			return err
		}
		if n == 0 {
			n = 10 * m
		}
		cfgs := []struct {
			label string
			cfg   core.Config
		}{
			{"no-replication", core.Config{Strategy: core.NoReplication}},
			{"groups-k2", core.Config{Strategy: core.Groups, Groups: 2}},
			{"everywhere", core.Config{Strategy: core.ReplicateEverywhere}},
			{"oracle", core.Config{Strategy: core.Oracle}},
		}
		tb := report.NewTable("alpha", "strategy", "mean_makespan", "mean_ratio_ub")
		src := rng.New(seed)
		for _, alpha := range alphas {
			for _, c := range cfgs {
				// Each trial's seeds are the workload's and the
				// perturbation's, drawn in trial order from the cell's
				// stream; the CSV stays byte-identical for any worker count.
				type trialOut struct{ makespan, ratio float64 }
				outs, err := experiments.Trials(rng.New(src.Uint64()), trials, 2, workers, func(_ int, seeds []uint64) (trialOut, error) {
					in, err := workload.New(workload.Spec{
						Name: wl, N: n, M: m, Alpha: alpha, Seed: seeds[0],
					})
					if err != nil {
						return trialOut{}, err
					}
					uncertainty.Uniform{}.Perturb(in, nil, rng.New(seeds[1]))
					// Centralized instance validation between perturbation
					// and the solvers, mirroring the serving layer.
					if err := in.Validate(true); err != nil {
						return trialOut{}, err
					}
					out, err := core.Run(in, c.cfg)
					if err != nil {
						return trialOut{}, err
					}
					return trialOut{makespan: out.Makespan, ratio: out.RatioUpper}, nil
				})
				if err != nil {
					return err
				}
				var mk, ratio []float64
				for _, o := range outs {
					mk = append(mk, o.makespan)
					ratio = append(ratio, o.ratio)
				}
				tb.AddRow(alpha, c.label, stats.Summarize(mk).Mean, stats.Summarize(ratio).Mean)
			}
		}
		return tb.WriteCSV(w)

	default:
		return fmt.Errorf("unknown mode %q (want ratio, memory or emp)", mode)
	}
}
