package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

func init() { register("e4", "E4: replication benefit on motivating workloads", runE4) }

// runE4 runs the paper's motivating application scenarios — out-of-core
// sparse linear algebra and MapReduce — and reports the makespan of
// the three strategies relative to no replication, under realistic
// (log-normal) estimate noise. This is the "does it matter in
// practice" experiment.
func runE4(w *Sink, opts Options) error {
	nTrials, n, m := 10, 480, 24
	if opts.Quick {
		nTrials, n, m = 2, 96, 12
	}
	src := rng.New(opts.Seed + 404)
	families := []string{"iterative", "spmv", "mapreduce", "bimodal"}
	strategies := []struct {
		label string
		cfg   core.Config
	}{
		{"no-replication", core.Config{Strategy: core.NoReplication}},
		{fmt.Sprintf("groups k=%d", m/4), core.Config{Strategy: core.Groups, Groups: m / 4}},
		{"everywhere", core.Config{Strategy: core.ReplicateEverywhere}},
		{"oracle", core.Config{Strategy: core.Oracle}},
	}

	out := report.NewTable("workload", "strategy", "mean makespan", "vs no-replication")
	for _, fam := range families {
		means := make([]float64, len(strategies))
		for si, s := range strategies {
			// Each (family, strategy) cell draws its own workloads. Seeds
			// per trial: workload, perturbation.
			makespans, err := trials(rng.New(src.Uint64()), nTrials, 2, opts, func(t trial) (float64, error) {
				runner := getRunner()
				defer putRunner(runner)
				in := workload.MustNew(workload.Spec{
					Name: fam, N: n, M: m, Alpha: 2, Seed: t.seeds[0],
				})
				uncertainty.LogNormal{Sigma: 0.4}.Perturb(in, nil, rng.New(t.seeds[1]))
				res, err := runner.Run(in, s.cfg)
				if err != nil {
					return 0, err
				}
				return res.Makespan, t.scored(res)
			})
			if err != nil {
				return err
			}
			means[si] = stats.Summarize(makespans).Mean
		}
		for si, s := range strategies {
			rel := means[si] / means[0]
			out.AddRow(fam, s.label, means[si], fmt.Sprintf("%.1f%%", 100*rel))
		}
	}
	fmt.Fprintf(w, "m=%d, n=%d, α=2, lognormal(0.4) noise, %d trials per cell.\n", m, n, nTrials)
	fmt.Fprintln(w, "Each trial uses an independent workload draw; 100% = no replication.")
	if err := out.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected shape: replication closes most of the gap toward the")
	fmt.Fprintln(w, "clairvoyant oracle, with group replication capturing the bulk of it.")
	return nil
}
